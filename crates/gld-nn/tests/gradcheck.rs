//! Finite-difference gradient checks for every differentiable op.
//!
//! A learned compressor trained with a subtly wrong gradient converges to a
//! silently worse rate–distortion point, so these checks are the most
//! important tests in the workspace: each op's analytic gradient is compared
//! against a central finite difference on random small inputs.

use gld_nn::prelude::*;
use gld_tensor::conv::Conv2dGeometry;
use gld_tensor::{Tensor, TensorRng};

/// Computes the finite-difference gradient of `f` (a scalar-valued function
/// of a single tensor) at `x`.
fn finite_difference(f: &dyn Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut grad = Tensor::zeros(x.dims());
    for i in 0..x.numel() {
        let mut plus = x.clone();
        plus.data_mut()[i] += eps;
        let mut minus = x.clone();
        minus.data_mut()[i] -= eps;
        grad.data_mut()[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
    }
    grad
}

/// Asserts that the analytic gradient of `build` (which maps a leaf Var to a
/// scalar Var) matches finite differences at `x`.
fn check_gradient(build: &dyn Fn(&Tape, &Var) -> Var, x: &Tensor, tol: f32) {
    let tape = Tape::new();
    let leaf = tape.leaf(x.clone());
    let out = build(&tape, &leaf);
    assert_eq!(out.numel(), 1, "gradient check requires a scalar output");
    let grads = out.backward();
    let analytic = grads[leaf.id()].clone().expect("missing gradient");

    let scalar_fn = |xt: &Tensor| -> f32 {
        let tape = Tape::new();
        let leaf = tape.leaf(xt.clone());
        build(&tape, &leaf).value().item()
    };
    let numeric = finite_difference(&scalar_fn, x, 1e-2);

    for i in 0..x.numel() {
        let a = analytic.data()[i];
        let n = numeric.data()[i];
        let denom = 1.0f32.max(a.abs()).max(n.abs());
        assert!(
            (a - n).abs() / denom < tol,
            "gradient mismatch at {i}: analytic {a} vs numeric {n}"
        );
    }
}

#[test]
fn gradcheck_elementwise_unary_ops() {
    let mut rng = TensorRng::new(1);
    let x = rng.rand_uniform(&[2, 3], 0.3, 2.0); // positive, away from kinks
    check_gradient(&|_t, v| v.exp().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.ln().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.sqrt().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.sigmoid().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.tanh().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.silu().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.gelu().sum(), &x, 3e-2);
    check_gradient(&|_t, v| v.relu().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.neg().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.scale(3.0).sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.add_scalar(1.5).square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.abs().sum(), &x, 2e-2);
}

#[test]
fn gradcheck_binary_ops_with_broadcasting() {
    let mut rng = TensorRng::new(2);
    let x = rng.rand_uniform(&[2, 3], 0.5, 1.5);
    let other = rng.rand_uniform(&[3], 0.5, 1.5);
    let other2 = other.clone();
    check_gradient(
        &move |t, v| v.add(&t.constant(other.clone())).square().sum(),
        &x,
        2e-2,
    );
    check_gradient(
        &move |t, v| v.mul(&t.constant(other2.clone())).sum(),
        &x,
        2e-2,
    );
    let denom = rng.rand_uniform(&[2, 3], 1.0, 2.0);
    check_gradient(
        &move |t, v| v.div(&t.constant(denom.clone())).sum(),
        &x,
        2e-2,
    );
    let numer = rng.rand_uniform(&[2, 3], 1.0, 2.0);
    check_gradient(
        &move |t, v| t.constant(numer.clone()).div(v).sum(),
        &x,
        2e-2,
    );
    let sub_other = rng.rand_uniform(&[2, 1], 0.0, 1.0);
    check_gradient(
        &move |t, v| v.sub(&t.constant(sub_other.clone())).square().sum(),
        &x,
        2e-2,
    );
}

#[test]
fn gradcheck_matmul_2d_and_batched() {
    let mut rng = TensorRng::new(3);
    let x = rng.randn(&[3, 4]).scale(0.5);
    let w = rng.randn(&[4, 2]).scale(0.5);
    let w2 = w.clone();
    check_gradient(
        &move |t, v| v.matmul(&t.constant(w.clone())).square().sum(),
        &x,
        2e-2,
    );
    // Gradient with respect to the right operand.
    let a = rng.randn(&[3, 4]).scale(0.5);
    check_gradient(
        &move |t, v| t.constant(a.clone()).matmul(v).square().sum(),
        &w2,
        2e-2,
    );
    // Batched with broadcast batch on the right.
    let xb = rng.randn(&[2, 3, 4]).scale(0.5);
    let wb = rng.randn(&[1, 4, 2]).scale(0.5);
    check_gradient(
        &move |t, v| v.matmul(&t.constant(wb.clone())).square().sum(),
        &xb,
        2e-2,
    );
}

#[test]
fn gradcheck_softmax_and_reductions() {
    let mut rng = TensorRng::new(4);
    let x = rng.randn(&[2, 4]);
    check_gradient(&|_t, v| v.softmax_last().square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.mean(), &x, 2e-2);
    check_gradient(&|_t, v| v.sum_axis(1, false).square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.mean_axis(0, true).square().sum(), &x, 2e-2);
}

#[test]
fn gradcheck_shape_ops() {
    let mut rng = TensorRng::new(5);
    let x = rng.randn(&[2, 3, 4]);
    check_gradient(&|_t, v| v.reshape(&[6, 4]).square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.permute(&[2, 0, 1]).square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.slice_axis(1, 1, 3).square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.index_select(2, &[3, 0]).square().sum(), &x, 2e-2);
    let other = rng.randn(&[2, 2, 4]);
    check_gradient(
        &move |t, v| {
            let o = t.constant(other.clone());
            t.concat(&[v, &o], 1).square().sum()
        },
        &x,
        2e-2,
    );
}

#[test]
fn gradcheck_conv2d_input_weight_bias() {
    let mut rng = TensorRng::new(6);
    let geom = Conv2dGeometry::new(3, 1, 1);
    let x = rng.randn(&[1, 2, 4, 4]).scale(0.5);
    let w = rng.randn(&[3, 2, 3, 3]).scale(0.3);
    let b = rng.randn(&[3]).scale(0.1);

    // wrt input
    let (wc, bc) = (w.clone(), b.clone());
    check_gradient(
        &move |t, v| {
            v.conv2d(&t.constant(wc.clone()), Some(&t.constant(bc.clone())), geom)
                .square()
                .sum()
        },
        &x,
        3e-2,
    );
    // wrt weight
    let (xc, bc2) = (x.clone(), b.clone());
    check_gradient(
        &move |t, v| {
            t.constant(xc.clone())
                .conv2d(v, Some(&t.constant(bc2.clone())), geom)
                .square()
                .sum()
        },
        &w,
        3e-2,
    );
    // wrt bias
    let (xc2, wc2) = (x.clone(), w.clone());
    check_gradient(
        &move |t, v| {
            t.constant(xc2.clone())
                .conv2d(&t.constant(wc2.clone()), Some(v), geom)
                .square()
                .sum()
        },
        &b,
        3e-2,
    );
    // Strided convolution wrt input.
    let geom2 = Conv2dGeometry::new(3, 2, 1);
    let wc3 = w.clone();
    check_gradient(
        &move |t, v| {
            v.conv2d(&t.constant(wc3.clone()), None, geom2)
                .square()
                .sum()
        },
        &x,
        3e-2,
    );
}

#[test]
fn gradcheck_group_norm() {
    let mut rng = TensorRng::new(7);
    let x = rng.randn(&[2, 4, 3, 3]);
    let gamma = rng.rand_uniform(&[4], 0.5, 1.5);
    let beta = rng.randn(&[4]).scale(0.1);
    // wrt input
    let (gc, bc) = (gamma.clone(), beta.clone());
    check_gradient(
        &move |t, v| {
            v.group_norm(2, &t.constant(gc.clone()), &t.constant(bc.clone()), 1e-5)
                .square()
                .sum()
        },
        &x,
        5e-2,
    );
    // wrt gamma
    let (xc, bc2) = (x.clone(), beta.clone());
    check_gradient(
        &move |t, v| {
            t.constant(xc.clone())
                .group_norm(2, v, &t.constant(bc2.clone()), 1e-5)
                .square()
                .sum()
        },
        &gamma,
        3e-2,
    );
    // wrt beta
    let (xc2, gc2) = (x.clone(), gamma.clone());
    check_gradient(
        &move |t, v| {
            t.constant(xc2.clone())
                .group_norm(2, &t.constant(gc2.clone()), v, 1e-5)
                .square()
                .sum()
        },
        &beta,
        3e-2,
    );
}

#[test]
fn gradcheck_pooling_and_upsampling() {
    let mut rng = TensorRng::new(8);
    let x = rng.randn(&[1, 2, 4, 4]);
    check_gradient(&|_t, v| v.avg_pool2d(2).square().sum(), &x, 2e-2);
    check_gradient(&|_t, v| v.upsample_nearest2d(2).square().sum(), &x, 2e-2);
}

#[test]
fn gradcheck_attention_layer() {
    let mut rng = TensorRng::new(9);
    let attn = SelfAttention::new("attn", 4, 2, &mut rng);
    let x = rng.randn(&[1, 3, 4]).scale(0.5);
    check_gradient(&move |t, v| attn.forward(t, v).square().sum(), &x, 5e-2);
}

#[test]
fn gradcheck_composed_expression() {
    // A miniature network: conv → groupnorm-free silu → mean, mixing several
    // op backwards in one graph.
    let mut rng = TensorRng::new(10);
    let geom = Conv2dGeometry::new(3, 1, 1);
    let w = rng.randn(&[2, 1, 3, 3]).scale(0.4);
    let x = rng.randn(&[1, 1, 5, 5]).scale(0.5);
    check_gradient(
        &move |t, v| {
            let h = v.conv2d(&t.constant(w.clone()), None, geom).silu();
            let pooled = h.avg_pool2d(1);
            pooled.square().mean()
        },
        &x,
        3e-2,
    );
}

#[test]
fn backward_accumulates_into_parameters() {
    let mut rng = TensorRng::new(11);
    let p = Parameter::new("w", rng.randn(&[3]));
    let tape = Tape::new();
    let w = tape.param(&p);
    // Use the parameter twice; gradients must accumulate from both uses.
    let loss = w.square().sum().add(&w.scale(2.0).sum());
    loss.backward();
    let expected = p.value().scale(2.0).add_scalar(2.0);
    let got = p.grad();
    for i in 0..3 {
        assert!((got.data()[i] - expected.data()[i]).abs() < 1e-5);
    }
}
