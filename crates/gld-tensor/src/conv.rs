//! Convolution support: `im2col`/`col2im` and the conv2d used by the
//! `gld-nn` layers and their tests.
//!
//! Layout convention is NCHW: `[batch, channels, height, width]`.

use crate::tensor::{matmul_block, Tensor};

/// Convolution geometry: kernel size, stride and symmetric zero padding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride along height and width.
    pub stride: usize,
    /// Symmetric zero padding along height and width.
    pub pad: usize,
}

impl Conv2dGeometry {
    /// Creates a square-kernel geometry.
    pub fn new(k: usize, stride: usize, pad: usize) -> Self {
        Conv2dGeometry {
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// Output spatial size for an input of `h × w`.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kh) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kw) / self.stride + 1;
        (oh, ow)
    }
}

/// Unfolds an NCHW tensor into column form for convolution-as-matmul.
///
/// Output shape: `[b, c*kh*kw, oh*ow]`.
pub fn im2col(x: &Tensor, geom: Conv2dGeometry) -> Tensor {
    let (b, c, h, w) = nchw(x);
    let (oh, ow) = geom.output_size(h, w);
    let cols = c * geom.kh * geom.kw;
    let mut out = vec![0.0f32; b * cols * oh * ow];
    let images = x.data().chunks(c * h * w);
    for (chunk, image) in out.chunks_mut(cols * oh * ow).zip(images) {
        im2col_image(image, (h, w), geom, chunk);
    }
    Tensor::from_vec(out, &[b, cols, oh * ow])
}

/// [`im2col`] of one `[c, h, w]` image into `out` (`[c*kh*kw, oh*ow]`; `c` is
/// implied by the lengths).  Every element of `out` is written: the in-bounds
/// block of each plane by slice copies, the padding around it with zeros.
fn im2col_image(image: &[f32], (h, w): (usize, usize), geom: Conv2dGeometry, out: &mut [f32]) {
    let Conv2dGeometry {
        kh,
        kw,
        stride,
        pad,
    } = geom;
    let (oh, ow) = geom.output_size(h, w);
    // Output positions `o` in `0..out` whose input position `o*stride + k - pad`
    // is in `0..extent`, as a half-open range.
    let in_bounds = |out: usize, extent: usize, k: usize| {
        let lo = pad.saturating_sub(k).div_ceil(stride).min(out);
        let hi = (extent + pad).saturating_sub(k).div_ceil(stride);
        (lo, hi.clamp(lo, out))
    };
    for (row, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let (ci, khi, kwi) = (row / (kh * kw), row / kw % kh, row % kw);
        let (top, bottom) = in_bounds(oh, h, khi);
        let (lo, hi) = in_bounds(ow, w, kwi);
        if top == bottom || lo == hi {
            plane.fill(0.0);
            continue;
        }
        let src = &image[ci * h * w..][..h * w];
        let first = (top * stride + khi - pad) * w + lo * stride + kwi - pad;
        if stride == 1 && ow == w {
            // The plane is the image shifted: one copy spans every in-bounds
            // row.  What it drags across the row ends is zeroed below.
            let (start, end) = (top * ow + lo, (bottom - 1) * ow + hi);
            plane[start..end].copy_from_slice(&src[first..][..end - start]);
        } else {
            let lines = plane[top * ow..bottom * ow].chunks_exact_mut(ow);
            for (line, from) in lines.zip(src[first..].chunks(stride * w)) {
                for (v, &s) in line[lo..hi].iter_mut().zip(from.iter().step_by(stride)) {
                    *v = s;
                }
            }
        }
        plane[..top * ow].fill(0.0);
        plane[bottom * ow..].fill(0.0);
        for line in plane[top * ow..bottom * ow].chunks_exact_mut(ow) {
            line[..lo].fill(0.0);
            line[hi..].fill(0.0);
        }
    }
}

/// Folds column form back into an NCHW tensor, accumulating overlaps.
/// This is the adjoint of [`im2col`] and is used in the convolution backward
/// pass with respect to the input.
pub fn col2im(cols: &Tensor, geom: Conv2dGeometry, c: usize, h: usize, w: usize) -> Tensor {
    let b = cols.dim(0);
    let (oh, ow) = geom.output_size(h, w);
    assert_eq!(
        cols.dim(1),
        c * geom.kh * geom.kw,
        "col2im channel mismatch"
    );
    assert_eq!(cols.dim(2), oh * ow, "col2im spatial mismatch");
    let mut out = vec![0.0f32; b * c * h * w];
    let src = cols.data();
    let pad = geom.pad as isize;
    for (bi, chunk) in out.chunks_mut(c * h * w).enumerate() {
        let base = bi * (c * geom.kh * geom.kw) * oh * ow;
        for ci in 0..c {
            for khi in 0..geom.kh {
                for kwi in 0..geom.kw {
                    let row = (ci * geom.kh + khi) * geom.kw + kwi;
                    for ohi in 0..oh {
                        let ih = (ohi * geom.stride) as isize + khi as isize - pad;
                        if ih < 0 || ih as usize >= h {
                            continue;
                        }
                        for owi in 0..ow {
                            let iw = (owi * geom.stride) as isize + kwi as isize - pad;
                            if iw < 0 || iw as usize >= w {
                                continue;
                            }
                            chunk[(ci * h + ih as usize) * w + iw as usize] +=
                                src[base + row * oh * ow + ohi * ow + owi];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, c, h, w])
}

/// Convolution: NCHW input, `[out_c, in_c, kh, kw]` weight, bias of length
/// `out_c`.  Each image is unfolded into a cache-sized scratch and multiplied
/// at once; nothing of batch size is materialised besides the output.
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>, geom: Conv2dGeometry) -> Tensor {
    let (b, c, h, w) = nchw(x);
    assert_eq!(
        weight.rank(),
        4,
        "conv2d weight must be [out_c, in_c, kh, kw]"
    );
    let out_c = weight.dim(0);
    assert_eq!(weight.dim(1), c, "conv2d weight in-channel mismatch");
    assert_eq!(weight.dim(2), geom.kh, "conv2d kernel height mismatch");
    assert_eq!(weight.dim(3), geom.kw, "conv2d kernel width mismatch");
    let (oh, ow) = geom.output_size(h, w);
    let (k, n) = (c * geom.kh * geom.kw, oh * ow);
    let mut out = vec![0.0f32; b * out_c * n];
    let mut cols = vec![0.0f32; k * n];
    for (chunk, image) in out.chunks_mut(out_c * n).zip(x.data().chunks(c * h * w)) {
        im2col_image(image, (h, w), geom, &mut cols);
        matmul_bias(weight.data(), &cols, bias, chunk, (out_c, k, n));
    }
    Tensor::from_vec(out, &[b, out_c, oh, ow])
}

/// [`conv2d`] from columns already unfolded by [`im2col`] (`[b, k, n]`) —
/// the form the autograd layer uses when it keeps the columns for the
/// backward pass.  `out_hw` is the output's spatial size, `oh * ow == n`.
pub fn conv2d_from_cols(
    cols: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    out_hw: (usize, usize),
) -> Tensor {
    let (b, k, n) = (cols.dim(0), cols.dim(1), cols.dim(2));
    let out_c = weight.dim(0);
    assert_eq!(weight.numel(), out_c * k, "conv2d weight/columns mismatch");
    assert_eq!(out_hw.0 * out_hw.1, n, "conv2d output size mismatch");
    let mut out = vec![0.0f32; b * out_c * n];
    for (chunk, colb) in out.chunks_mut(out_c * n).zip(cols.data().chunks(k * n)) {
        matmul_bias(weight.data(), colb, bias, chunk, (out_c, k, n));
    }
    Tensor::from_vec(out, &[b, out_c, out_hw.0, out_hw.1])
}

/// `out = w · cols`, then the bias added per output row while the row is
/// still in cache (one rounding, as a separate broadcasting add would do).
fn matmul_bias(
    w: &[f32],
    cols: &[f32],
    bias: Option<&Tensor>,
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
) {
    matmul_block(w, cols, out, m, k, n);
    if let Some(bias) = bias {
        for (row, &bv) in out.chunks_exact_mut(n).zip(bias.data()) {
            for v in row {
                *v += bv;
            }
        }
    }
}

/// Splits an NCHW shape into its four extents.
///
/// # Panics
/// Panics if the tensor is not rank 4.
pub fn nchw(x: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(x.rank(), 4, "expected NCHW tensor, got shape {}", x.shape());
    (x.dim(0), x.dim(1), x.dim(2), x.dim(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_conv2d(
        x: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        geom: Conv2dGeometry,
    ) -> Tensor {
        let (b, c, h, w) = nchw(x);
        let out_c = weight.dim(0);
        let (oh, ow) = geom.output_size(h, w);
        let mut out = Tensor::zeros(&[b, out_c, oh, ow]);
        for bi in 0..b {
            for oc in 0..out_c {
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut acc = bias.map(|bs| bs.data()[oc]).unwrap_or(0.0);
                        for ci in 0..c {
                            for khi in 0..geom.kh {
                                for kwi in 0..geom.kw {
                                    let ih = ohi as isize * geom.stride as isize + khi as isize
                                        - geom.pad as isize;
                                    let iw = owi as isize * geom.stride as isize + kwi as isize
                                        - geom.pad as isize;
                                    if ih < 0 || iw < 0 || ih as usize >= h || iw as usize >= w {
                                        continue;
                                    }
                                    acc += x.at(&[bi, ci, ih as usize, iw as usize])
                                        * weight.at(&[oc, ci, khi, kwi]);
                                }
                            }
                        }
                        out.set(&[bi, oc, ohi, owi], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn output_size_formula() {
        let g = Conv2dGeometry::new(3, 1, 1);
        assert_eq!(g.output_size(8, 8), (8, 8));
        let g = Conv2dGeometry::new(3, 2, 1);
        assert_eq!(g.output_size(8, 8), (4, 4));
        let g = Conv2dGeometry::new(4, 2, 1);
        assert_eq!(g.output_size(8, 8), (4, 4));
    }

    #[test]
    fn conv2d_matches_naive_reference() {
        let mut rng = crate::random::TensorRng::new(7);
        let x = rng.randn(&[2, 3, 6, 6]);
        let w = rng.randn(&[4, 3, 3, 3]).scale(0.3);
        let b = rng.randn(&[4]);
        for (stride, pad) in [(1usize, 1usize), (2, 1), (1, 0)] {
            let geom = Conv2dGeometry::new(3, stride, pad);
            let fast = conv2d(&x, &w, Some(&b), geom);
            let slow = naive_conv2d(&x, &w, Some(&b), geom);
            assert_eq!(fast.dims(), slow.dims());
            let err = fast.sub(&slow).abs().max();
            assert!(
                err < 1e-4,
                "conv mismatch {err} at stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y: the defining
        // property of an adjoint pair, which the conv backward pass relies on.
        let mut rng = crate::random::TensorRng::new(11);
        let geom = Conv2dGeometry::new(3, 2, 1);
        let x = rng.randn(&[1, 2, 5, 5]);
        let cols = im2col(&x, geom);
        let y = rng.randn(cols.dims());
        let lhs = cols.dot(&y);
        let back = col2im(&y, geom, 2, 5, 5);
        let rhs = x.dot(&back);
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 kernel with weight 1 reproduces the input channel.
        let x = Tensor::arange(16).reshape(&[1, 1, 4, 4]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let geom = Conv2dGeometry::new(1, 1, 0);
        let y = conv2d(&x, &w, None, geom);
        assert_eq!(y, x);
    }
}
