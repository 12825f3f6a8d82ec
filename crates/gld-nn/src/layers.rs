//! Neural-network layers used by the VAE, the hyperprior and the space-time
//! UNet.  Each layer owns its [`Parameter`]s and exposes a `forward` that
//! records onto the caller's [`Tape`].

use crate::param::{Parameter, ParameterSet};
use crate::tape::{Tape, Var};
use gld_tensor::conv::Conv2dGeometry;
use gld_tensor::{Tensor, TensorRng};

/// Common interface for layers with a single-tensor forward signature.
pub trait Module {
    /// Applies the layer to `x`, recording onto `x`'s tape.
    fn forward(&self, x: &Var) -> Var;
    /// All trainable parameters of the layer.
    fn parameters(&self) -> ParameterSet;
}

/// A stack of boxed [`Module`]s applied in order.
#[derive(Default)]
pub struct Sequentialish {
    layers: Vec<Box<dyn Module>>,
}

impl Sequentialish {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequentialish { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Module>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequentialish {
    fn forward(&self, x: &Var) -> Var {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        h
    }

    fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        for layer in &self.layers {
            set.extend(&layer.parameters());
        }
        set
    }
}

// ----------------------------------------------------------------------
// Linear
// ----------------------------------------------------------------------

/// Fully connected layer `y = x · W + b`.
///
/// Accepts rank-2 input `[batch, in]` or rank-3 input `[batch, len, in]`
/// (flattened internally), which is what the attention blocks use.
pub struct Linear {
    weight: Parameter,
    bias: Option<Parameter>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a linear layer with Kaiming-initialised weights.
    pub fn new(
        name: &str,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        let weight = Parameter::new(
            format!("{name}.weight"),
            rng.kaiming(&[in_features, out_features], in_features),
        );
        let bias = if bias {
            Some(Parameter::new(
                format!("{name}.bias"),
                Tensor::zeros(&[out_features]),
            ))
        } else {
            None
        };
        Linear {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Applies the layer, recording onto the variable's tape.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let dims = x.dims();
        assert!(
            dims.last() == Some(&self.in_features),
            "Linear expected trailing dim {}, got {:?}",
            self.in_features,
            dims
        );
        let w = tape.param(&self.weight);
        let (flat, restore): (Var, Option<Vec<usize>>) = match dims.len() {
            2 => (x.clone(), None),
            3 => {
                let mut out_dims = dims.clone();
                out_dims[2] = self.out_features;
                (x.reshape(&[dims[0] * dims[1], dims[2]]), Some(out_dims))
            }
            _ => panic!("Linear supports rank-2 or rank-3 input, got {dims:?}"),
        };
        let mut y = flat.matmul(&w);
        if let Some(b) = &self.bias {
            let bv = tape.param(b);
            y = y.add(&bv);
        }
        match restore {
            Some(out_dims) => y.reshape(&out_dims),
            None => y,
        }
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.push(self.weight.clone());
        if let Some(b) = &self.bias {
            set.push(b.clone());
        }
        set
    }
}

// ----------------------------------------------------------------------
// Conv2d
// ----------------------------------------------------------------------

/// 2-D convolution layer over NCHW tensors.
pub struct Conv2d {
    weight: Parameter,
    bias: Option<Parameter>,
    geom: Conv2dGeometry,
    in_channels: usize,
    out_channels: usize,
}

impl Conv2d {
    /// Creates a convolution with a square kernel.
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut TensorRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Parameter::new(
            format!("{name}.weight"),
            rng.kaiming(&[out_channels, in_channels, kernel, kernel], fan_in),
        );
        let bias = Some(Parameter::new(
            format!("{name}.bias"),
            Tensor::zeros(&[out_channels]),
        ));
        Conv2d {
            weight,
            bias,
            geom: Conv2dGeometry::new(kernel, stride, pad),
            in_channels,
            out_channels,
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geom
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Applies the convolution, recording onto the variable's tape.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let w = tape.param(&self.weight);
        let b = self.bias.as_ref().map(|b| tape.param(b));
        x.conv2d(&w, b.as_ref(), self.geom)
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.push(self.weight.clone());
        if let Some(b) = &self.bias {
            set.push(b.clone());
        }
        set
    }
}

// ----------------------------------------------------------------------
// GroupNorm
// ----------------------------------------------------------------------

/// Group normalisation with affine parameters.
pub struct GroupNorm {
    gamma: Parameter,
    beta: Parameter,
    groups: usize,
    eps: f32,
}

impl GroupNorm {
    /// Creates a group-norm layer over `channels` channels split into
    /// `groups` groups.
    pub fn new(name: &str, groups: usize, channels: usize) -> Self {
        assert!(
            channels.is_multiple_of(groups),
            "channels must divide into groups"
        );
        GroupNorm {
            gamma: Parameter::new(format!("{name}.gamma"), Tensor::ones(&[channels])),
            beta: Parameter::new(format!("{name}.beta"), Tensor::zeros(&[channels])),
            groups,
            eps: 1e-5,
        }
    }

    /// Applies normalisation, recording onto the variable's tape.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let gamma = tape.param(&self.gamma);
        let beta = tape.param(&self.beta);
        x.group_norm(self.groups, &gamma, &beta, self.eps)
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.push(self.gamma.clone());
        set.push(self.beta.clone());
        set
    }
}

// ----------------------------------------------------------------------
// Self-attention
// ----------------------------------------------------------------------

/// Multi-head self-attention over sequences `[batch, len, channels]`.
///
/// The factorized space-time attention of the denoising UNet applies this
/// block twice per stage: once with the sequence axis set to time (temporal
/// attention) and once with it set to the flattened spatial grid (spatial
/// attention), exactly as in the paper's §3.2.
pub struct SelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    channels: usize,
}

impl SelfAttention {
    /// Creates a multi-head attention block.
    pub fn new(name: &str, channels: usize, heads: usize, rng: &mut TensorRng) -> Self {
        assert!(
            channels.is_multiple_of(heads),
            "channels must divide into heads"
        );
        SelfAttention {
            wq: Linear::new(&format!("{name}.wq"), channels, channels, false, rng),
            wk: Linear::new(&format!("{name}.wk"), channels, channels, false, rng),
            wv: Linear::new(&format!("{name}.wv"), channels, channels, false, rng),
            wo: Linear::new(&format!("{name}.wo"), channels, channels, true, rng),
            heads,
            channels,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Applies scaled dot-product self-attention.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        self.attend(tape, x, x)
    }

    /// Self-attention's output at some positions of `x` only: the queries
    /// come from `queries` (`[batch, len_q, channels]`, those positions of
    /// `x`), the keys and values from all of `x`.  Equal, to the bit, to
    /// those positions of [`SelfAttention::forward`]'s output.
    pub fn attend(&self, tape: &Tape, queries: &Var, x: &Var) -> Var {
        for input in [queries, x] {
            let dims = input.dims();
            assert_eq!(
                dims.len(),
                3,
                "attention input must be [batch, len, channels]"
            );
            assert_eq!(dims[2], self.channels, "attention channel mismatch");
        }
        let q = self.wq.forward(tape, queries);
        let k = self.wk.forward(tape, x);
        let v = self.wv.forward(tape, x);
        self.wo.forward(tape, &q.attention(&k, &v, self.heads))
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.extend(&self.wq.parameters());
        set.extend(&self.wk.parameters());
        set.extend(&self.wv.parameters());
        set.extend(&self.wo.parameters());
        set
    }
}

// ----------------------------------------------------------------------
// Timestep embedding
// ----------------------------------------------------------------------

/// Sinusoidal timestep embedding followed by a two-layer MLP, as used by the
/// denoising UNet to condition on the diffusion timestep `t`.
pub struct TimeEmbedding {
    mlp1: Linear,
    mlp2: Linear,
    dim: usize,
}

impl TimeEmbedding {
    /// Creates an embedding with sinusoidal dimension `dim` and output
    /// dimension `out_dim`.
    pub fn new(name: &str, dim: usize, out_dim: usize, rng: &mut TensorRng) -> Self {
        assert!(dim.is_multiple_of(2), "sinusoidal dimension must be even");
        TimeEmbedding {
            mlp1: Linear::new(&format!("{name}.mlp1"), dim, out_dim, true, rng),
            mlp2: Linear::new(&format!("{name}.mlp2"), out_dim, out_dim, true, rng),
            dim,
        }
    }

    /// Builds the (non-trainable) sinusoidal features for a batch of integer
    /// timesteps.
    pub fn sinusoidal(&self, timesteps: &[usize]) -> Tensor {
        sinusoidal_embedding(timesteps, self.dim)
    }

    /// Embeds the timesteps into a `[batch, out_dim]` feature tensor.
    pub fn forward(&self, tape: &Tape, timesteps: &[usize]) -> Var {
        let base = tape.constant(self.sinusoidal(timesteps));
        let h = self.mlp1.forward(tape, &base).silu();
        self.mlp2.forward(tape, &h)
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.extend(&self.mlp1.parameters());
        set.extend(&self.mlp2.parameters());
        set
    }
}

/// Standard transformer/diffusion sinusoidal embedding of integer timesteps.
pub fn sinusoidal_embedding(timesteps: &[usize], dim: usize) -> Tensor {
    assert!(dim.is_multiple_of(2), "sinusoidal dimension must be even");
    let half = dim / 2;
    let mut data = vec![0.0f32; timesteps.len() * dim];
    for (bi, &t) in timesteps.iter().enumerate() {
        for i in 0..half {
            let freq = (10_000.0f32).powf(-(i as f32) / half as f32);
            let angle = t as f32 * freq;
            data[bi * dim + i] = angle.sin();
            data[bi * dim + half + i] = angle.cos();
        }
    }
    Tensor::from_vec(data, &[timesteps.len(), dim])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_rank2_and_rank3() {
        let mut rng = TensorRng::new(0);
        let lin = Linear::new("lin", 8, 4, true, &mut rng);
        let tape = Tape::new();
        let x2 = tape.constant(rng.randn(&[3, 8]));
        assert_eq!(lin.forward(&tape, &x2).dims(), vec![3, 4]);
        let x3 = tape.constant(rng.randn(&[2, 5, 8]));
        assert_eq!(lin.forward(&tape, &x3).dims(), vec![2, 5, 4]);
        assert_eq!(lin.parameters().len(), 2);
    }

    #[test]
    fn conv2d_layer_shapes() {
        let mut rng = TensorRng::new(1);
        let conv = Conv2d::new("c", 3, 8, 3, 2, 1, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(rng.randn(&[2, 3, 8, 8]));
        let y = conv.forward(&tape, &x);
        assert_eq!(y.dims(), vec![2, 8, 4, 4]);
        assert_eq!(conv.parameters().num_scalars(), 8 * 3 * 3 * 3 + 8);
    }

    #[test]
    fn group_norm_normalises_groups() {
        let mut rng = TensorRng::new(2);
        let gn = GroupNorm::new("gn", 2, 4);
        let tape = Tape::new();
        let x = tape.constant(rng.randn(&[2, 4, 5, 5]).scale(10.0).add_scalar(3.0));
        let y = gn.forward(&tape, &x).value();
        // With gamma=1, beta=0 the per-group mean is ~0 and variance ~1.
        let group = y.slice_axis(1, 0, 2);
        assert!(group.mean().abs() < 1e-3);
        assert!((group.variance() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn attention_preserves_shape_and_mixes_positions() {
        let mut rng = TensorRng::new(3);
        let attn = SelfAttention::new("attn", 8, 2, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(rng.randn(&[2, 6, 8]));
        let y = attn.forward(&tape, &x);
        assert_eq!(y.dims(), vec![2, 6, 8]);
        assert_eq!(attn.parameters().len(), 5); // 3 projections (no bias) + out weight + out bias
    }

    #[test]
    fn sinusoidal_embedding_properties() {
        let e = sinusoidal_embedding(&[0, 1, 500], 16);
        assert_eq!(e.dims(), &[3, 16]);
        // t = 0 gives sin = 0, cos = 1.
        for i in 0..8 {
            assert!(e.at(&[0, i]).abs() < 1e-6);
            assert!((e.at(&[0, 8 + i]) - 1.0).abs() < 1e-6);
        }
        // Distinct timesteps give distinct embeddings.
        let d01: f32 = (0..16).map(|i| (e.at(&[0, i]) - e.at(&[1, i])).abs()).sum();
        assert!(d01 > 1e-3);
    }

    #[test]
    fn time_embedding_forward_shape() {
        let mut rng = TensorRng::new(4);
        let te = TimeEmbedding::new("t", 8, 16, &mut rng);
        let tape = Tape::new();
        let y = te.forward(&tape, &[3, 7]);
        assert_eq!(y.dims(), vec![2, 16]);
        assert_eq!(te.parameters().len(), 4);
    }

    #[test]
    fn sequentialish_composes_modules() {
        struct Scale2;
        impl Module for Scale2 {
            fn forward(&self, x: &Var) -> Var {
                x.scale(2.0)
            }
            fn parameters(&self) -> ParameterSet {
                ParameterSet::new()
            }
        }
        let mut seq = Sequentialish::new();
        seq.push(Box::new(Scale2));
        seq.push(Box::new(Scale2));
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2]));
        let y = seq.forward(&x);
        assert_eq!(y.value().data(), &[4.0, 4.0]);
        assert_eq!(seq.len(), 2);
    }
}
