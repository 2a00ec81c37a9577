//! The Adam optimizer, plus global-norm gradient clipping. The paper trains
//! DeepST with Adam (§V-A).

use crate::array::Array;
use crate::param::Param;

/// Scale all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_grad_norm(params: &[&Param], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        total += p.grad().sq_norm();
    }
    rescale(params.iter().copied(), total, max_norm)
}

/// [`clip_grad_norm`] over *parameter groups*: each inner slice is one
/// logical tensor whose members are consecutive row blocks (a sharded
/// embedding table), and its squared norm is accumulated by chaining
/// [`Array::sq_norm_acc`] across the blocks in order — the identical float
/// addition sequence as `sq_norm` of the unsharded tensor, so the clip
/// decision (and hence training) is bit-identical to the dense layout.
/// Unallocated (cold-shard) gradients contribute exactly nothing, which is
/// also bitwise-neutral: every partial accumulator is non-negative and
/// `x + 0.0 == x` bitwise for non-negative `x`.
///
/// Singleton groups reproduce [`clip_grad_norm`] bit for bit.
pub fn clip_grad_norm_grouped(groups: &[Vec<&Param>], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for group in groups {
        let mut acc = 0.0f32;
        for p in group {
            acc = p.grad().sq_norm_acc(acc);
        }
        total += acc;
    }
    rescale(groups.iter().flatten().copied(), total, max_norm)
}

fn rescale<'p>(params: impl Iterator<Item = &'p Param>, total: f32, max_norm: f32) -> f32 {
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            // temporary move-out to avoid aliasing value/grad borrows;
            // an unallocated gradient clones empty and stays unallocated
            let mut g = p.grad().clone();
            g.scale_mut(scale);
            p.zero_grad();
            p.accumulate_grad(&g);
        }
    }
    norm
}

/// Common optimizer interface: consume accumulated gradients and update
/// parameter values in place, then zero the gradients.
pub trait Optimizer {
    /// Apply one update step. `params` must be the same set, in the same
    /// order, on every call.
    fn step(&mut self, params: &[&Param]);
}

/// Adam optimizer (Kingma & Ba, 2014) with bias correction.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Array>,
    v: Vec<Array>,
}

impl Adam {
    /// Adam with default β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Adam with explicit hyper-parameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0 && eps > 0.0);
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Change the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0);
        self.lr = lr;
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the full optimizer state (hyper-parameters, step counter,
    /// first/second-moment estimates) for checkpointing. The moment vectors
    /// are empty before the first [`Optimizer::step`].
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore a state captured by [`Adam::export_state`]. The next
    /// [`Optimizer::step`] continues exactly where the snapshot left off;
    /// moment shapes are validated lazily against the parameter set there.
    pub fn import_state(&mut self, state: AdamState) -> Result<(), String> {
        if state.m.len() != state.v.len() {
            return Err(format!(
                "adam state has {} first moments but {} second moments",
                state.m.len(),
                state.v.len()
            ));
        }
        for (m, v) in state.m.iter().zip(&state.v) {
            if m.shape() != v.shape() {
                return Err(format!(
                    "adam moment shape mismatch: m {:?} vs v {:?}",
                    m.shape(),
                    v.shape()
                ));
            }
        }
        let hypers_ok = state.lr > 0.0
            && state.eps > 0.0
            && (0.0..1.0).contains(&state.beta1)
            && (0.0..1.0).contains(&state.beta2);
        if !hypers_ok {
            return Err("adam hyper-parameters out of range".to_string());
        }
        self.t = state.t;
        self.lr = state.lr;
        self.beta1 = state.beta1;
        self.beta2 = state.beta2;
        self.eps = state.eps;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

/// A checkpointable snapshot of an [`Adam`] optimizer.
#[derive(Debug, Clone)]
pub struct AdamState {
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// First-moment estimates, one per parameter in step order.
    pub m: Vec<Array>,
    /// Second-moment estimates, one per parameter in step order.
    pub v: Vec<Array>,
}

impl Optimizer for Adam {
    fn step(&mut self, params: &[&Param]) {
        if self.m.is_empty() {
            // Per-parameter moments start as empty sentinels and are
            // materialized the first time the parameter shows a gradient —
            // a never-touched (cold) embedding shard costs zero moment
            // bytes. Skipping it is exact: with m = v = 0 and g = 0 the
            // dense update is value += -0.0, a bitwise no-op.
            self.m = params.iter().map(|_| Array::zeros(&[0])).collect();
            self.v = params.iter().map(|_| Array::zeros(&[0])).collect();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "param set changed between steps"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter().zip(&mut self.m).zip(&mut self.v) {
            if m.is_empty() {
                if p.grad().is_empty() {
                    continue; // still cold: exact zero update, keep it so
                }
                *m = Array::zeros_like(&p.value());
                *v = Array::zeros_like(&p.value());
            }
            // Once a parameter has history, every step must run (the
            // moments decay) even when this step's gradient is zero —
            // exactly as the dense layout would. Moments update under the
            // gradient read guard, values under one value write guard
            // afterwards; the two guards are never held together.
            {
                let grad = p.grad();
                let g = (!grad.is_empty()).then(|| grad.data());
                for (i, (mi, vi)) in m.data_mut().iter_mut().zip(v.data_mut()).enumerate() {
                    let gi = g.map_or(0.0, |g| g[i]);
                    *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                    *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                }
            }
            let mut value = p.value_mut();
            for ((x, &mi), &vi) in value.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                let delta = -self.lr * m_hat / (v_hat.sqrt() + self.eps);
                *x += delta;
            }
            drop(value);
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::param::Binder;
    use crate::tape::Tape;

    /// One gradient step on loss = (w − target)².
    fn quad_step(w: &Param, target: f32) {
        let tape = Tape::new();
        let b = Binder::new(&tape);
        let wv = b.var(w);
        let t = b.input(Array::full(w.value().shape(), target));
        let loss = ops::sum_all(ops::square(ops::sub(wv, t)));
        let grads = tape.backward(loss);
        b.accumulate_grads(&grads);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Param::new("w", Array::vector(vec![5.0, -4.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            quad_step(&w, 2.0);
            opt.step(&[&w]);
        }
        assert!((w.value().data()[0] - 2.0).abs() < 1e-2);
        assert!((w.value().data()[1] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn clip_reduces_norm() {
        let p = Param::new("p", Array::vector(vec![0.0, 0.0]));
        p.accumulate_grad(&Array::vector(vec![3.0, 4.0])); // norm 5
        let pre = clip_grad_norm(&[&p], 1.0);
        assert!((pre - 5.0).abs() < 1e-5);
        let post = p.grad().sq_norm().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_below_threshold() {
        let p = Param::new("p", Array::vector(vec![0.0]));
        p.accumulate_grad(&Array::vector(vec![0.5]));
        clip_grad_norm(&[&p], 1.0);
        assert!((p.grad().data()[0] - 0.5).abs() < 1e-6);
    }

    /// A grouped clip over row blocks must make the same decision — and
    /// leave the same gradient bits — as a dense clip over the
    /// concatenated tensor.
    #[test]
    fn grouped_clip_matches_dense_clip_bitwise() {
        let g: Vec<f32> = (0..12).map(|i| (i as f32 - 4.0) * 0.7).collect();
        let dense = Param::new("d", Array::zeros(&[4, 3]));
        dense.accumulate_grad(&Array::from_vec(&[4, 3], g.clone()));
        let b0 = Param::new("d.b0", Array::zeros(&[2, 3]));
        let b1 = Param::new("d.b1", Array::zeros(&[2, 3]));
        b0.accumulate_grad(&Array::from_vec(&[2, 3], g[..6].to_vec()));
        b1.accumulate_grad(&Array::from_vec(&[2, 3], g[6..].to_vec()));
        let o_dense = Param::new("o", Array::zeros(&[2]));
        let o_grouped = Param::new("o", Array::zeros(&[2]));
        let og = Array::vector(vec![0.3, -2.0]);
        o_dense.accumulate_grad(&og);
        o_grouped.accumulate_grad(&og);

        let n_dense = clip_grad_norm(&[&dense, &o_dense], 1.5);
        let n_grouped = clip_grad_norm_grouped(&[vec![&b0, &b1], vec![&o_grouped]], 1.5);
        assert_eq!(n_dense.to_bits(), n_grouped.to_bits());
        let dense_bits: Vec<u32> = dense.grad().data().iter().map(|v| v.to_bits()).collect();
        let blocked_bits: Vec<u32> = b0
            .grad()
            .data()
            .iter()
            .chain(b1.grad().data().iter())
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(dense_bits, blocked_bits);
        let ob: Vec<u32> = o_dense.grad().data().iter().map(|v| v.to_bits()).collect();
        let og2: Vec<u32> = o_grouped
            .grad()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(ob, og2);
    }

    /// Cold-shard skipping in Adam is exact: a parameter that never sees a
    /// gradient ends a multi-step run with bit-identical values to one fed
    /// explicit zero gradients, and costs zero moment bytes throughout.
    #[test]
    fn adam_cold_param_skip_is_bit_identical_to_zero_grads() {
        let run = |feed_zeros: bool| -> (Vec<u32>, bool) {
            let hot = Param::new("hot", Array::vector(vec![5.0, -4.0]));
            let cold = Param::new("cold", Array::vector(vec![1.25, -0.5, 3.0]));
            let mut opt = Adam::new(0.1);
            for _ in 0..25 {
                quad_step(&hot, 2.0);
                if feed_zeros {
                    cold.accumulate_grad(&Array::zeros(&[3]));
                }
                opt.step(&[&hot, &cold]);
            }
            let mut bits: Vec<u32> = hot.value().data().iter().map(|v| v.to_bits()).collect();
            bits.extend(cold.value().data().iter().map(|v| v.to_bits()));
            let cold_moments_empty = opt.m[1].is_empty() && opt.v[1].is_empty();
            (bits, cold_moments_empty)
        };
        let (lazy_bits, lazy_empty) = run(false);
        let (dense_bits, dense_empty) = run(true);
        assert_eq!(lazy_bits, dense_bits);
        assert!(lazy_empty, "cold param allocated moments");
        assert!(!dense_empty, "zero-fed param should have materialized");
    }

    /// Once a parameter has gradient history, a later zero-gradient step
    /// must still decay its moments (it is no longer skippable).
    #[test]
    fn adam_steps_hot_param_with_empty_grad() {
        let w = Param::new("w", Array::vector(vec![1.0]));
        let mut opt = Adam::new(0.1);
        quad_step(&w, 0.0);
        opt.step(&[&w]);
        let after_one = w.value().data()[0];
        // no new gradient: momentum keeps moving the value
        opt.step(&[&w]);
        assert_ne!(after_one.to_bits(), w.value().data()[0].to_bits());
    }

    /// Splitting a run at an arbitrary step via export/import must produce
    /// bit-identical parameters to the uninterrupted run.
    #[test]
    fn adam_state_roundtrip_is_bit_identical() {
        let run = |split: Option<usize>| -> Vec<u32> {
            let w = Param::new("w", Array::vector(vec![5.0, -4.0]));
            let mut opt = Adam::new(0.1);
            for step in 0..40 {
                if Some(step) == split {
                    let state = opt.export_state();
                    let mut fresh = Adam::new(0.33); // different lr, overwritten
                    fresh.import_state(state).unwrap();
                    opt = fresh;
                }
                quad_step(&w, 2.0);
                opt.step(&[&w]);
            }
            let bits: Vec<u32> = w.value().data().iter().map(|v| v.to_bits()).collect();
            bits
        };
        let solid = run(None);
        assert_eq!(solid, run(Some(17)));
        assert_eq!(solid, run(Some(1)));
    }

    #[test]
    fn adam_import_rejects_inconsistent_state() {
        let mut opt = Adam::new(0.1);
        let mut bad = opt.export_state();
        bad.m.push(Array::vector(vec![0.0]));
        assert!(opt.import_state(bad).is_err());
        let mut bad_lr = opt.export_state();
        bad_lr.lr = -1.0;
        assert!(opt.import_state(bad_lr).is_err());
    }

    #[test]
    fn step_zeroes_gradients() {
        let w = Param::new("w", Array::vector(vec![1.0]));
        quad_step(&w, 0.0);
        let mut opt = Adam::new(0.01);
        opt.step(&[&w]);
        assert_eq!(w.grad().data(), &[0.0]);
        assert_eq!(opt.steps(), 1);
    }
}
