//! Shape arithmetic: dimension bookkeeping, row-major strides and NumPy-style
//! broadcasting rules.

/// A tensor shape: an ordered list of dimension extents.
///
/// `Shape` is a thin, copy-friendly wrapper around `Vec<usize>` providing the
/// index arithmetic used throughout the crate.  The empty shape `[]` denotes a
/// scalar with one element.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// The dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major (C order) strides in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    /// Panics if the index rank does not match or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        let strides = self.strides();
        let mut off = 0usize;
        for (axis, (&i, &d)) in index.iter().zip(self.0.iter()).enumerate() {
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} with extent {d}"
            );
            off += i * strides[axis];
        }
        off
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Computes the broadcast shape of two shapes using NumPy trailing-dimension
/// rules, or `None` when they are incompatible.
///
/// Dimensions are aligned from the right; a pair of extents is compatible if
/// they are equal or either is 1.
pub fn broadcast_shapes(a: &Shape, b: &Shape) -> Option<Shape> {
    let rank = a.rank().max(b.rank());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < a.rank() {
            a.0[a.rank() - 1 - i]
        } else {
            1
        };
        let db = if i < b.rank() {
            b.0[b.rank() - 1 - i]
        } else {
            1
        };
        let d = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
        out[rank - 1 - i] = d;
    }
    Some(Shape(out))
}

/// Row-major strides of `src` aligned to the trailing axes of a rank
/// `out_rank` output, with stride 0 on every axis `src` broadcasts along
/// (extent 1, or missing on the left).
pub(crate) fn broadcast_strides(src: &Shape, out_rank: usize) -> Vec<usize> {
    let mut strides = vec![0usize; out_rank - src.rank()];
    strides.extend(
        src.strides()
            .iter()
            .zip(src.dims())
            .map(|(&s, &d)| if d == 1 { 0 } else { s }),
    );
    strides
}

/// A walk over a contiguous row-major output and `N` strided sources, cut
/// into runs along the innermost axis.
///
/// Extent-1 axes are dropped and adjacent axes every source steps through
/// uniformly are merged, so a channel broadcast, a row broadcast and a
/// transpose all come out as a handful of outer axes around one long inner
/// run — no per-element index arithmetic.
pub(crate) struct RunWalk<const N: usize> {
    /// `(extent, stride per source)` of the outer axes, outermost first.
    outer: Vec<(usize, [usize; N])>,
    /// Length of one run (the innermost merged axis).
    pub run: usize,
    /// Stride of each source along a run.
    pub step: [usize; N],
}

impl<const N: usize> RunWalk<N> {
    /// Plans the walk over an output of `out_dims`; `strides[n][axis]` is
    /// source `n`'s stride along output axis `axis`.
    pub fn new(out_dims: &[usize], strides: [&[usize]; N]) -> Self {
        let mut axes: Vec<(usize, [usize; N])> = Vec::with_capacity(out_dims.len());
        for (axis, &extent) in out_dims.iter().enumerate() {
            if extent == 1 {
                continue;
            }
            let s: [usize; N] = std::array::from_fn(|n| strides[n][axis]);
            match axes.last_mut() {
                Some((outer_extent, outer)) if (0..N).all(|n| outer[n] == s[n] * extent) => {
                    *outer_extent *= extent;
                    *outer = s;
                }
                _ => axes.push((extent, s)),
            }
        }
        let (run, step) = axes.pop().unwrap_or((1, [0; N]));
        RunWalk {
            outer: axes,
            run,
            step,
        }
    }

    /// Calls `f(out_offset, source_offsets)` once per run, in output order.
    pub fn for_each_run(&self, mut f: impl FnMut(usize, [usize; N])) {
        let runs: usize = self.outer.iter().map(|&(extent, _)| extent).product();
        let mut index = vec![0usize; self.outer.len()];
        let mut src = [0usize; N];
        for r in 0..runs {
            f(r * self.run, src);
            // Advance the odometer, keeping the source offsets in step.
            for (i, &(extent, strides)) in index.iter_mut().zip(&self.outer).rev() {
                *i += 1;
                for n in 0..N {
                    src[n] += strides[n];
                }
                if *i < extent {
                    break;
                }
                *i = 0;
                for n in 0..N {
                    src[n] -= strides[n] * extent;
                }
            }
        }
    }
}

/// Iterator over all multi-dimensional indices of a shape in row-major order.
pub struct IndexIter {
    dims: Vec<usize>,
    current: Vec<usize>,
    remaining: usize,
}

impl IndexIter {
    /// Creates a row-major index iterator over `shape`.
    pub fn new(shape: &Shape) -> Self {
        IndexIter {
            dims: shape.0.clone(),
            current: vec![0; shape.rank()],
            remaining: shape.numel(),
        }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let item = self.current.clone();
        self.remaining -= 1;
        // Advance odometer.
        for axis in (0..self.dims.len()).rev() {
            self.current[axis] += 1;
            if self.current[axis] < self.dims[axis] {
                break;
            }
            self.current[axis] = 0;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_counts_indices_in_row_major_order() {
        let s = Shape::new(&[3, 4, 5]);
        for (flat, idx) in IndexIter::new(&s).enumerate() {
            assert_eq!(s.offset(&idx), flat);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        let s = Shape::new(&[2, 2]);
        s.offset(&[2, 0]);
    }

    #[test]
    fn broadcast_equal_shapes() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(broadcast_shapes(&a, &b), Some(Shape::new(&[2, 3])));
    }

    #[test]
    fn broadcast_with_ones() {
        let a = Shape::new(&[4, 1, 3]);
        let b = Shape::new(&[2, 1]);
        assert_eq!(broadcast_shapes(&a, &b), Some(Shape::new(&[4, 2, 3])));
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::new(&[5, 7]);
        let b = Shape::new(&[]);
        assert_eq!(broadcast_shapes(&a, &b), Some(Shape::new(&[5, 7])));
    }

    #[test]
    fn broadcast_incompatible() {
        let a = Shape::new(&[3, 2]);
        let b = Shape::new(&[4, 2]);
        assert_eq!(broadcast_shapes(&a, &b), None);
    }

    #[test]
    fn index_iter_visits_all_in_order() {
        let s = Shape::new(&[2, 3]);
        let all: Vec<_> = IndexIter::new(&s).collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn display_format() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(format!("{s}"), "[2, 3]");
    }
}
