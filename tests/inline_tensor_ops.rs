//! Tensor ops run on the thread that calls them.  The thread pool is the
//! block executor's alone (its batch counting is in
//! `tests/streaming_executor.rs`): an op over tens of thousands of elements
//! submits nothing to the pool, so its result, reduction order included,
//! cannot depend on `RAYON_NUM_THREADS`.  CI runs this file at pool sizes
//! 1, 3 and 8.

use gld_tensor::attention::attention;
use gld_tensor::conv::{conv2d, Conv2dGeometry};
use gld_tensor::{Tensor, TensorRng};
use rayon::pool::batches_submitted_by_this_thread;

const LEN: usize = 1 << 15;

#[test]
fn large_tensor_ops_submit_nothing_to_the_pool() {
    let mut rng = TensorRng::new(46);
    let x = rng.randn(&[LEN]);
    let y = rng.randn(&[LEN]);
    let a = rng.randn(&[8, 64, 32]);
    let b = rng.randn(&[8, 32, 64]);
    let image = rng.randn(&[4, 3, 32, 32]);
    let weight = rng.randn(&[8, 3, 3, 3]);
    let bias = rng.randn(&[8]);
    let (q, k, v) = (
        rng.randn(&[4, 64, 64]),
        rng.randn(&[4, 64, 64]),
        rng.randn(&[4, 64, 64]),
    );

    let before = batches_submitted_by_this_thread();
    let mapped = x.map(|e| e * 0.5 + 1.0);
    let sum = x.add(&y);
    let product = a.matmul(&b);
    let convolved = conv2d(&image, &weight, Some(&bias), Conv2dGeometry::new(3, 1, 1));
    let attended = attention(&q, &k, &v, 2);
    assert_eq!(
        batches_submitted_by_this_thread(),
        before,
        "a tensor op handed work to the pool"
    );

    assert_eq!(mapped.numel(), LEN);
    assert_eq!(sum.numel(), LEN);
    assert_eq!(product.dims(), &[8, 64, 64]);
    assert_eq!(convolved.dims(), &[4, 8, 32, 32]);
    assert_eq!(attended.dims(), &[4, 64, 64]);
}

#[test]
fn dot_is_the_left_to_right_sum_to_the_bit() {
    // 2⁶⁰, then ones, then −2⁶⁰.  From the left every one is lost against
    // 2⁶⁰ (half its spacing is 128), so the sum is exactly zero; any other
    // grouping adds up some of the ones first and keeps them.
    let big = (1u64 << 30) as f32;
    let mut a = vec![1.0f32; LEN];
    let mut b = vec![1.0f32; LEN];
    (a[0], b[0]) = (big, big);
    (a[LEN - 1], b[LEN - 1]) = (big, -big);
    let products = || a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64);
    let left_to_right = products().fold(0.0f64, |acc, p| acc + p);
    let halves = products().take(LEN / 2).sum::<f64>() + products().skip(LEN / 2).sum::<f64>();
    assert_eq!(left_to_right, 0.0);
    assert_ne!(halves, left_to_right, "the data must tell groupings apart");

    let dot = Tensor::from_vec(a.clone(), &[LEN]).dot(&Tensor::from_vec(b.clone(), &[LEN]));
    assert_eq!(dot.to_bits(), (left_to_right as f32).to_bits());
}
