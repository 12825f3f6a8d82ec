//! Trainable parameters and parameter collections.
//!
//! A [`Parameter`] is a shared, mutable tensor plus an accumulated gradient.
//! Layers hold `Parameter`s; each forward pass binds them to leaf variables
//! on the current [`crate::tape::Tape`], and `backward` deposits gradients
//! back into the parameter, where the optimizer picks them up.
//!
//! A panic under the lock (a rejected [`Parameter::set_value`]) does not
//! wedge the parameter: every update leaves the data valid at every step, so
//! a poisoned lock is recovered rather than propagated.

use gld_tensor::Tensor;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug)]
struct ParameterInner {
    name: String,
    value: Tensor,
    grad: Tensor,
}

/// A shared trainable tensor with an accumulated gradient.
///
/// Cloning a `Parameter` clones the *handle*; both clones refer to the same
/// underlying storage, which is how the optimizer and the layers stay in
/// sync.
#[derive(Clone, Debug)]
pub struct Parameter {
    inner: Arc<RwLock<ParameterInner>>,
}

impl Parameter {
    /// Creates a named parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Parameter {
            inner: Arc::new(RwLock::new(ParameterInner {
                name: name.into(),
                value,
                grad,
            })),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, ParameterInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, ParameterInner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The parameter's name (used in diagnostics).
    pub fn name(&self) -> String {
        self.read().name.clone()
    }

    /// A snapshot of the current value.
    pub fn value(&self) -> Tensor {
        self.read().value.clone()
    }

    /// A snapshot of the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.read().grad.clone()
    }

    /// Number of scalar elements.
    pub fn numel(&self) -> usize {
        self.read().value.numel()
    }

    /// Overwrites the value (used by the optimizer and by checkpoint loads).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.write();
        assert_eq!(
            inner.value.dims(),
            value.dims(),
            "parameter {} shape cannot change",
            inner.name
        );
        inner.value = value;
    }

    /// Adds `delta` into the accumulated gradient.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        let mut inner = self.write();
        assert_eq!(
            inner.grad.dims(),
            delta.dims(),
            "gradient shape mismatch for parameter {}",
            inner.name
        );
        inner.grad.add_assign(delta);
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        let mut inner = self.write();
        inner.grad = Tensor::zeros(inner.value.dims());
    }

    /// Applies an in-place update `value += update` (used by optimizers).
    pub fn apply_update(&self, update: &Tensor) {
        let mut inner = self.write();
        inner.value.add_assign(update);
    }

    /// True when two handles refer to the same underlying parameter.
    pub fn same_as(&self, other: &Parameter) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// An ordered collection of parameters (a model's state).
#[derive(Clone, Debug, Default)]
pub struct ParameterSet {
    params: Vec<Parameter>,
}

impl ParameterSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ParameterSet { params: Vec::new() }
    }

    /// Adds a parameter (ignoring duplicates of the same handle).
    pub fn push(&mut self, p: Parameter) {
        if !self.params.iter().any(|q| q.same_as(&p)) {
            self.params.push(p);
        }
    }

    /// Adds every parameter from another set.
    pub fn extend(&mut self, other: &ParameterSet) {
        for p in &other.params {
            self.push(p.clone());
        }
    }

    /// Iterates over the parameters in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Parameter> {
        self.params.iter()
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.numel()).sum()
    }

    /// Zeroes every gradient in the set.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global gradient L2 norm (useful for clipping and diagnostics).
    pub fn grad_norm(&self) -> f32 {
        let sq: f64 = self
            .params
            .iter()
            .map(|p| {
                let g = p.grad();
                g.data().iter().map(|&x| x as f64 * x as f64).sum::<f64>()
            })
            .sum();
        sq.sqrt() as f32
    }

    /// Clips every gradient so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &self.params {
                let clipped = p.grad().scale(scale);
                p.zero_grad();
                p.accumulate_grad(&clipped);
            }
        }
    }
}

impl FromIterator<Parameter> for ParameterSet {
    fn from_iter<T: IntoIterator<Item = Parameter>>(iter: T) -> Self {
        let mut set = ParameterSet::new();
        for p in iter {
            set.push(p);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_zero_grad() {
        let p = Parameter::new("w", Tensor::zeros(&[2, 2]));
        p.accumulate_grad(&Tensor::ones(&[2, 2]));
        p.accumulate_grad(&Tensor::ones(&[2, 2]));
        assert!(p.grad().data().iter().all(|&g| g == 2.0));
        p.zero_grad();
        assert!(p.grad().data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn clones_share_storage() {
        let p = Parameter::new("w", Tensor::zeros(&[3]));
        let q = p.clone();
        q.apply_update(&Tensor::ones(&[3]));
        assert!(p.value().data().iter().all(|&v| v == 1.0));
        assert!(p.same_as(&q));
    }

    #[test]
    #[should_panic(expected = "shape cannot change")]
    fn set_value_rejects_shape_change() {
        let p = Parameter::new("w", Tensor::zeros(&[3]));
        p.set_value(Tensor::zeros(&[4]));
    }

    #[test]
    fn rejected_set_value_leaves_every_clone_usable() {
        let p = Parameter::new("w", Tensor::ones(&[3]));
        let q = p.clone();
        // The shape assert fires under the write lock and poisons it.
        let rejected = std::panic::catch_unwind(|| q.set_value(Tensor::zeros(&[4])));
        assert!(rejected.is_err());
        for handle in [&p, &q] {
            assert_eq!(handle.name(), "w");
            assert!(handle.value().data().iter().all(|&v| v == 1.0));
            assert!(handle.grad().data().iter().all(|&g| g == 0.0));
        }
        p.accumulate_grad(&Tensor::ones(&[3]));
        q.apply_update(&Tensor::ones(&[3]));
        q.set_value(p.value().scale(2.0));
        for handle in [&p, &q] {
            assert!(handle.grad().data().iter().all(|&g| g == 1.0));
            assert!(handle.value().data().iter().all(|&v| v == 4.0));
        }
        p.zero_grad();
        assert!(q.grad().data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn parameter_set_dedup_and_counts() {
        let a = Parameter::new("a", Tensor::zeros(&[2, 3]));
        let b = Parameter::new("b", Tensor::zeros(&[4]));
        let mut set = ParameterSet::new();
        set.push(a.clone());
        set.push(a.clone());
        set.push(b.clone());
        assert_eq!(set.len(), 2);
        assert_eq!(set.num_scalars(), 10);
    }

    #[test]
    fn grad_norm_and_clipping() {
        let a = Parameter::new("a", Tensor::zeros(&[2]));
        a.accumulate_grad(&Tensor::from_vec(vec![3.0, 4.0], &[2]));
        let set: ParameterSet = [a.clone()].into_iter().collect();
        assert!((set.grad_norm() - 5.0).abs() < 1e-6);
        set.clip_grad_norm(1.0);
        assert!((set.grad_norm() - 1.0).abs() < 1e-5);
        // Direction preserved.
        let g = a.grad();
        assert!((g.data()[1] / g.data()[0] - 4.0 / 3.0).abs() < 1e-5);
    }
}
