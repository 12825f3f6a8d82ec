//! The [`Tensor`] type: contiguous row-major `f32` storage plus the core
//! arithmetic (broadcast element-wise ops, batched matmul, reshaping,
//! slicing and concatenation).

use crate::shape::{broadcast_shapes, broadcast_strides, RunWalk, Shape};

/// A dense, contiguous, row-major `f32` tensor.
///
/// `Tensor` is the single data container used by every crate in the GLD
/// workspace: scientific field blocks, network activations, latent codes and
/// residuals are all `Tensor`s.  The representation is deliberately simple —
/// a shape and a flat `Vec<f32>` — which keeps the autograd tape in `gld-nn`
/// easy to reason about.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { shape, data }
    }

    /// Creates a scalar (rank-0) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a 1-D tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// Creates a 1-D tensor of `n` points linearly spaced between `start` and
    /// `end` inclusive.
    pub fn linspace(start: f32, end: f32, n: usize) -> Self {
        assert!(n >= 2, "linspace requires at least two points");
        let step = (end - start) / (n as f32 - 1.0);
        Tensor::from_vec((0..n).map(|i| start + step * i as f32).collect(), &[n])
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Value at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the value at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// The single value of a scalar or one-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.numel(),
            1,
            "item() requires a one-element tensor, got shape {}",
            self.shape
        );
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let new_shape = Shape::new(dims);
        assert_eq!(
            new_shape.numel(),
            self.numel(),
            "cannot reshape {} ({} elements) into {} ({} elements)",
            self.shape,
            self.numel(),
            new_shape,
            new_shape.numel()
        );
        Tensor {
            shape: new_shape,
            data: self.data.clone(),
        }
    }

    /// Reorders dimensions according to `perm` (a permutation of `0..rank`).
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let old_dims = self.dims();
        let new_dims: Vec<usize> = perm.iter().map(|&p| old_dims[p]).collect();
        let old_strides = self.shape.strides();
        let strides: Vec<usize> = perm.iter().map(|&p| old_strides[p]).collect();
        Tensor::from_vec(self.strided_copy(&new_dims, &strides), &new_dims)
    }

    /// The elements of a `dims`-shaped view of the data whose axis `i` has
    /// stride `strides[i]` (0 to repeat), in row-major order: contiguous
    /// runs are copied, repeated ones filled, the rest gathered.
    fn strided_copy(&self, dims: &[usize], strides: &[usize]) -> Vec<f32> {
        let walk = RunWalk::new(dims, [strides]);
        let (run, step) = (walk.run, walk.step[0]);
        let mut out = vec![0.0f32; dims.iter().product()];
        walk.for_each_run(|o, [s]| {
            let dst = &mut out[o..o + run];
            match step {
                0 => dst.fill(self.data[s]),
                1 => dst.copy_from_slice(&self.data[s..s + run]),
                _ => {
                    for (j, v) in dst.iter_mut().enumerate() {
                        *v = self.data[s + j * step];
                    }
                }
            }
        });
        out
    }

    /// Transposes a rank-2 tensor.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 requires a rank-2 tensor");
        self.permute(&[1, 0])
    }

    /// Inserts a size-1 dimension at `axis`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        let mut dims = self.dims().to_vec();
        assert!(axis <= dims.len(), "unsqueeze axis out of range");
        dims.insert(axis, 1);
        self.reshape(&dims)
    }

    /// Removes a size-1 dimension at `axis`.
    pub fn squeeze(&self, axis: usize) -> Tensor {
        let mut dims = self.dims().to_vec();
        assert!(
            axis < dims.len() && dims[axis] == 1,
            "squeeze axis must have extent 1"
        );
        dims.remove(axis);
        self.reshape(&dims)
    }

    /// Concatenates tensors along `axis`.  All other dimensions must match.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let rank = tensors[0].rank();
        assert!(
            axis < rank,
            "concat axis {axis} out of range for rank {rank}"
        );
        for t in tensors {
            assert_eq!(t.rank(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != axis {
                    assert_eq!(t.dim(d), tensors[0].dim(d), "concat dimension {d} mismatch");
                }
            }
        }
        let mut out_dims = tensors[0].dims().to_vec();
        out_dims[axis] = tensors.iter().map(|t| t.dim(axis)).sum();
        // Treat data as [outer, axis, inner].
        let outer: usize = out_dims[..axis].iter().product();
        let inner: usize = out_dims[axis + 1..].iter().product();
        let total_axis = out_dims[axis];
        let mut out = vec![0.0f32; outer * total_axis * inner];
        let mut axis_offset = 0usize;
        for t in tensors {
            let a = t.dim(axis);
            for o in 0..outer {
                let src_start = o * a * inner;
                let dst_start = o * total_axis * inner + axis_offset * inner;
                out[dst_start..dst_start + a * inner]
                    .copy_from_slice(&t.data[src_start..src_start + a * inner]);
            }
            axis_offset += a;
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Extracts the half-open range `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Tensor {
        assert!(axis < self.rank(), "slice axis out of range");
        assert!(
            start <= end && end <= self.dim(axis),
            "invalid slice range {start}..{end} for axis extent {}",
            self.dim(axis)
        );
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let a = dims[axis];
        let len = end - start;
        let mut out_dims = dims.to_vec();
        out_dims[axis] = len;
        let mut out = vec![0.0f32; outer * len * inner];
        for o in 0..outer {
            let src_start = o * a * inner + start * inner;
            let dst_start = o * len * inner;
            out[dst_start..dst_start + len * inner]
                .copy_from_slice(&self.data[src_start..src_start + len * inner]);
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Selects the given indices along `axis` (gather).
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Tensor {
        assert!(axis < self.rank(), "index_select axis out of range");
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let a = dims[axis];
        for &i in indices {
            assert!(i < a, "index {i} out of bounds for axis extent {a}");
        }
        let mut out_dims = dims.to_vec();
        out_dims[axis] = indices.len();
        let mut out = vec![0.0f32; outer * indices.len() * inner];
        for o in 0..outer {
            for (k, &i) in indices.iter().enumerate() {
                let src = o * a * inner + i * inner;
                let dst = o * indices.len() * inner + k * inner;
                out[dst..dst + inner].copy_from_slice(&self.data[src..src + inner]);
            }
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Writes `src` into the given indices along `axis` (scatter assign).
    /// The extents of `src` must match `self` everywhere except `axis`, where
    /// it must equal `indices.len()`.
    pub fn index_assign(&mut self, axis: usize, indices: &[usize], src: &Tensor) {
        assert!(axis < self.rank(), "index_assign axis out of range");
        assert_eq!(
            src.dim(axis),
            indices.len(),
            "index_assign source extent mismatch"
        );
        let dims = self.dims().to_vec();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let a = dims[axis];
        for &i in indices {
            assert!(i < a, "index {i} out of bounds for axis extent {a}");
        }
        for o in 0..outer {
            for (k, &i) in indices.iter().enumerate() {
                let dst = o * a * inner + i * inner;
                let s = o * indices.len() * inner + k * inner;
                self.data[dst..dst + inner].copy_from_slice(&src.data[s..s + inner]);
            }
        }
    }

    /// Broadcasts the tensor to `dims`, which must be broadcast-compatible.
    pub fn broadcast_to(&self, dims: &[usize]) -> Tensor {
        let target = Shape::new(dims);
        let bshape = broadcast_shapes(&self.shape, &target)
            .unwrap_or_else(|| panic!("cannot broadcast {} to {}", self.shape, target));
        assert_eq!(
            bshape, target,
            "broadcast_to target {target} is smaller than source {}",
            self.shape
        );
        let strides = broadcast_strides(&self.shape, target.rank());
        Tensor {
            data: self.strided_copy(dims, &strides),
            shape: target,
        }
    }

    // ------------------------------------------------------------------
    // Element-wise arithmetic
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    fn binary_op(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        if self.shape == other.shape {
            return Tensor {
                shape: self.shape.clone(),
                data: self
                    .data
                    .iter()
                    .zip(&other.data)
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            };
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape).unwrap_or_else(|| {
            panic!(
                "shapes {} and {} are not broadcast-compatible",
                self.shape, other.shape
            )
        });
        // Neither operand is materialised at the output shape: each run of
        // the output reads its operands in place, stepping or holding still.
        let rank = out_shape.rank();
        let strides_a = broadcast_strides(&self.shape, rank);
        let strides_b = broadcast_strides(&other.shape, rank);
        let walk = RunWalk::new(out_shape.dims(), [&strides_a, &strides_b]);
        let run = walk.run;
        let (a, b) = (&self.data, &other.data);
        let mut data = vec![0.0f32; out_shape.numel()];
        walk.for_each_run(|o, [ia, ib]| {
            let out = &mut data[o..o + run];
            match walk.step {
                [1, 1] => {
                    for (o, (&x, &y)) in out.iter_mut().zip(a[ia..ia + run].iter().zip(&b[ib..])) {
                        *o = f(x, y);
                    }
                }
                [1, _] => {
                    let y = b[ib];
                    for (o, &x) in out.iter_mut().zip(&a[ia..ia + run]) {
                        *o = f(x, y);
                    }
                }
                [_, 1] => {
                    let x = a[ia];
                    for (o, &y) in out.iter_mut().zip(&b[ib..ib + run]) {
                        *o = f(x, y);
                    }
                }
                _ => out.fill(f(a[ia], b[ib])),
            }
        });
        Tensor {
            shape: out_shape,
            data,
        }
    }

    /// Element-wise (broadcasting) addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, |a, b| a + b)
    }

    /// Element-wise (broadcasting) subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, |a, b| a - b)
    }

    /// Element-wise (broadcasting) multiplication.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, |a, b| a * b)
    }

    /// Element-wise (broadcasting) division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, |a, b| a / b)
    }

    /// Element-wise maximum of two tensors.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, f32::max)
    }

    /// Element-wise minimum of two tensors.
    pub fn minimum(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, f32::min)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(move |x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(move |x| x * s)
    }

    /// Negates every element.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// In-place `self += other` (shapes must match exactly).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * other` (shapes must match exactly).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    // ------------------------------------------------------------------
    // Matrix multiplication
    // ------------------------------------------------------------------

    /// Matrix multiplication.
    ///
    /// * rank-2 × rank-2: standard `[m,k] × [k,n] -> [m,n]`.
    /// * rank-3 × rank-3: batched `[b,m,k] × [b,k,n] -> [b,m,n]` (batch sizes
    ///   must match or either may be 1, in which case it is broadcast).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        match (self.rank(), other.rank()) {
            (2, 2) => {
                let (m, k) = (self.dim(0), self.dim(1));
                let (k2, n) = (other.dim(0), other.dim(1));
                assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
                let mut out = vec![0.0f32; m * n];
                matmul_block(&self.data, &other.data, &mut out, m, k, n);
                Tensor::from_vec(out, &[m, n])
            }
            (3, 3) => {
                let (ba, m, k) = (self.dim(0), self.dim(1), self.dim(2));
                let (bb, k2, n) = (other.dim(0), other.dim(1), other.dim(2));
                assert_eq!(
                    k, k2,
                    "batched matmul inner dimension mismatch: {k} vs {k2}"
                );
                assert!(
                    ba == bb || ba == 1 || bb == 1,
                    "batched matmul batch mismatch: {ba} vs {bb}"
                );
                let b = ba.max(bb);
                let mut out = vec![0.0f32; b * m * n];
                for (bi, chunk) in out.chunks_mut(m * n).enumerate() {
                    let ai = if ba == 1 { 0 } else { bi };
                    let bi2 = if bb == 1 { 0 } else { bi };
                    let a = &self.data[ai * m * k..(ai + 1) * m * k];
                    let bmat = &other.data[bi2 * k * n..(bi2 + 1) * k * n];
                    matmul_block(a, bmat, chunk, m, k, n);
                }
                Tensor::from_vec(out, &[b, m, n])
            }
            (ra, rb) => panic!("matmul supports rank 2×2 or 3×3, got {ra}×{rb}"),
        }
    }

    /// Dot product of two equally-shaped tensors (sum of element products).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "dot shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32
    }
}

/// Dense `m×k · k×n` matrix multiply into a pre-allocated output slice:
/// [`gld_kernels::KernelBackend::gemm_f32`] on the active backend, the one
/// GEMM under `Linear`, `conv2d`, attention and every backward rule.  Its
/// summation order is fixed, so results depend on neither backend nor shape.
pub fn matmul_block(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gld_kernels::kernels().gemm_f32(a, b, out, (m, k, n), None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.rank(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn construct_wrong_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[2, 2]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[4], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_matrix() {
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[0, 0]), 1.0);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[0, 1]), 0.0);
    }

    #[test]
    fn linspace_endpoints() {
        let t = Tensor::linspace(-1.0, 1.0, 5);
        assert!((t.at(&[0]) + 1.0).abs() < 1e-6);
        assert!((t.at(&[4]) - 1.0).abs() < 1e-6);
        assert!((t.at(&[2])).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.at(&[1, 0]), 3.0);
    }

    #[test]
    fn permute_2d_is_transpose() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.at(&[2, 0]), 3.0);
    }

    #[test]
    fn permute_3d_roundtrip() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn broadcast_add_row() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&row);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.at(&[0, 0]), 11.0);
        assert_eq!(c.at(&[1, 2]), 36.0);
    }

    #[test]
    fn broadcast_mul_column() {
        let a = Tensor::ones(&[2, 3]);
        let col = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]);
        let c = a.mul(&col);
        assert_eq!(c.at(&[0, 2]), 2.0);
        assert_eq!(c.at(&[1, 0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn incompatible_add_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 4]);
        a.add(&b);
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], &[1, 2]);
        let c = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.at(&[2, 1]), 6.0);

        let d = Tensor::from_vec(vec![7.0, 8.0], &[2, 1]);
        let e = Tensor::concat(&[&a, &d], 1);
        assert_eq!(e.dims(), &[2, 3]);
        assert_eq!(e.at(&[0, 2]), 7.0);
        assert_eq!(e.at(&[1, 2]), 8.0);
    }

    #[test]
    fn slice_axis_middle() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let s = t.slice_axis(1, 1, 3);
        assert_eq!(s.dims(), &[2, 2, 4]);
        assert_eq!(s.at(&[0, 0, 0]), t.at(&[0, 1, 0]));
        assert_eq!(s.at(&[1, 1, 3]), t.at(&[1, 2, 3]));
    }

    #[test]
    fn index_select_and_assign_roundtrip() {
        let t = Tensor::arange(24).reshape(&[4, 6]);
        let sel = t.index_select(0, &[1, 3]);
        assert_eq!(sel.dims(), &[2, 6]);
        assert_eq!(sel.at(&[0, 0]), 6.0);
        assert_eq!(sel.at(&[1, 5]), 23.0);

        let mut dst = Tensor::zeros(&[4, 6]);
        dst.index_assign(0, &[1, 3], &sel);
        assert_eq!(dst.at(&[1, 0]), 6.0);
        assert_eq!(dst.at(&[3, 5]), 23.0);
        assert_eq!(dst.at(&[0, 0]), 0.0);
    }

    #[test]
    fn matmul_2d_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.at(&[0, 0]), 58.0);
        assert_eq!(c.at(&[0, 1]), 64.0);
        assert_eq!(c.at(&[1, 0]), 139.0);
        assert_eq!(c.at(&[1, 1]), 154.0);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::arange(9).reshape(&[3, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn batched_matmul_broadcasts_batch() {
        let a = Tensor::arange(12).reshape(&[2, 2, 3]);
        let b = Tensor::eye(3).reshape(&[1, 3, 3]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 3]);
        assert_eq!(c, a);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn axpy_and_add_assign() {
        let mut a = Tensor::ones(&[4]);
        let b = Tensor::full(&[4], 2.0);
        a.add_assign(&b);
        assert!(a.data().iter().all(|&x| x == 3.0));
        a.axpy(0.5, &b);
        assert!(a.data().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn unsqueeze_squeeze() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        let u = t.unsqueeze(0);
        assert_eq!(u.dims(), &[1, 2, 3]);
        let s = u.squeeze(0);
        assert_eq!(s.dims(), &[2, 3]);
    }

    #[test]
    fn broadcast_to_explicit() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = t.broadcast_to(&[2, 3]);
        assert_eq!(b.dims(), &[2, 3]);
        assert_eq!(b.at(&[0, 2]), 1.0);
        assert_eq!(b.at(&[1, 0]), 2.0);
    }

    #[test]
    fn scalar_tensor_item() {
        let s = Tensor::scalar(3.25);
        assert_eq!(s.item(), 3.25);
        assert_eq!(s.rank(), 0);
    }
}
