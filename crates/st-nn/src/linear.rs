//! Fully connected layers and multi-layer perceptrons.

use rand::rngs::StdRng;

use st_tensor::{infer, init, ops, Array, Binder, Param, ScratchArena, Var};

use crate::module::{Activation, Module};

/// An affine layer `y = x·W + b` with `W ∈ R^{in×out}`, `b ∈ R^{out}`.
pub struct Linear {
    name: String,
    w: Param,
    b: Param,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Xavier-initialized linear layer.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "Linear '{name}': dims must be positive, got in_dim={in_dim}, out_dim={out_dim}"
        );
        Self {
            name: name.to_string(),
            w: Param::new(format!("{name}.w"), init::xavier(in_dim, out_dim, rng)),
            b: Param::new(format!("{name}.b"), Array::zeros(&[out_dim])),
            in_dim,
            out_dim,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass over a batch `x [n, in] → [n, out]`.
    ///
    /// Rejects a mis-shaped input with a diagnostic naming this layer,
    /// instead of a shape panic deep inside the GEMM kernel.
    pub fn forward<'t, 'p>(&'p self, b: &Binder<'t, 'p>, x: Var<'t>) -> Var<'t> {
        let xs = x.value().shape().to_vec();
        assert!(
            xs.len() == 2 && xs[1] == self.in_dim,
            "Linear '{}': input shape {:?} incompatible with expected [n, {}]",
            self.name,
            xs,
            self.in_dim
        );
        let w = b.var(&self.w);
        let bias = b.var(&self.b);
        ops::affine(x, w, bias)
    }

    /// Tape-free forward `x [n, in] → [n, out]`, sharing this layer's
    /// weights with [`Linear::forward`] and matching it bit-for-bit.
    pub fn infer(&self, arena: &mut ScratchArena, x: &Array) -> Array {
        assert!(
            x.ndim() == 2 && x.shape()[1] == self.in_dim,
            "Linear '{}': input shape {:?} incompatible with expected [n, {}]",
            self.name,
            x.shape(),
            self.in_dim
        );
        infer::affine(arena, x, &self.w.value(), &self.b.value())
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<&Param> {
        vec![&self.w, &self.b]
    }
}

/// A stack of [`Linear`] layers with a shared hidden activation.
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    output_act: Activation,
}

impl Mlp {
    /// An MLP through the given layer sizes, e.g. `[in, h, out]` builds two
    /// linear layers. `hidden_act` is applied between layers, `output_act`
    /// after the last.
    pub fn new(
        name: &str,
        sizes: &[usize],
        hidden_act: Activation,
        output_act: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(sizes.len() >= 2, "MLP needs at least [in, out]");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(&format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Self {
            layers,
            hidden_act,
            output_act,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Forward pass `x [n, in] → [n, out]`.
    pub fn forward<'t, 'p>(&'p self, b: &Binder<'t, 'p>, x: Var<'t>) -> Var<'t> {
        let last = self.layers.len() - 1;
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(b, h);
            h = if i == last {
                self.output_act.apply(h)
            } else {
                self.hidden_act.apply(h)
            };
        }
        h
    }

    /// Tape-free forward `x [n, in] → [n, out]`, matching [`Mlp::forward`]
    /// bit-for-bit. Intermediate activations are recycled into `arena`.
    pub fn infer(&self, arena: &mut ScratchArena, x: &Array) -> Array {
        let last = self.layers.len() - 1;
        let act = |i: usize| {
            if i == last {
                self.output_act
            } else {
                self.hidden_act
            }
        };
        let mut h = self.layers[0].infer(arena, x);
        act(0).apply_mut(&mut h);
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            let mut y = layer.infer(arena, &h);
            act(i).apply_mut(&mut y);
            arena.recycle(std::mem::replace(&mut h, y));
        }
        h
    }
}

impl Module for Mlp {
    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::optim::{Adam, Optimizer};
    use st_tensor::Tape;

    #[test]
    fn linear_shapes() {
        let mut rng = init::rng(0);
        let l = Linear::new("l", 3, 5, &mut rng);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let x = b.input(Array::zeros(&[4, 3]));
        let y = l.forward(&b, x);
        assert_eq!(y.value().shape(), &[4, 5]);
        assert_eq!(l.num_params(), 3 * 5 + 5);
    }

    #[test]
    fn linear_zero_weights_gives_bias() {
        let mut rng = init::rng(0);
        let l = Linear::new("l", 2, 2, &mut rng);
        *l.w.value_mut() = Array::zeros(&[2, 2]);
        *l.b.value_mut() = Array::vector(vec![1.0, -1.0]);
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let x = b.input(Array::from_vec(&[1, 2], vec![7.0, 9.0]));
        let y = l.forward(&b, x);
        assert_eq!(y.value().data(), &[1.0, -1.0]);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = init::rng(42);
        let mlp = Mlp::new(
            "xor",
            &[2, 8, 1],
            Activation::Tanh,
            Activation::Sigmoid,
            &mut rng,
        );
        let xs = Array::from_vec(&[4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = [0.0f32, 1.0, 1.0, 0.0];
        let mut opt = Adam::new(0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            let tape = Tape::new();
            let b = Binder::new(&tape);
            let x = b.input(xs.clone());
            let pred = mlp.forward(&b, x);
            let target = b.input(Array::from_vec(&[4, 1], ys.to_vec()));
            let loss = ops::mean_all(ops::square(ops::sub(pred, target)));
            last_loss = loss.scalar_value();
            let grads = tape.backward(loss);
            b.accumulate_grads(&grads);
            opt.step(&mlp.params());
        }
        assert!(last_loss < 0.03, "XOR loss did not converge: {last_loss}");
    }

    #[test]
    fn mlp_dims() {
        let mut rng = init::rng(1);
        let mlp = Mlp::new(
            "m",
            &[4, 16, 8, 2],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.params().len(), 6);
    }
}
