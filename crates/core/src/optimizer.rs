//! Optimizers as IR graphs: the "computation after the loop" of the
//! paper's Figure 4 (`state.apply_gradient`), compiled onto the actor
//! that owns each parameter's gradient (placement propagation out of the
//! loop, §3.3).

use raxpp_ir::{GraphBuilder, Jaxpr, Prim, Result, Shape, Tensor, VarId};

/// A first-order optimizer, lowered per parameter into an update graph
/// `(param, grad, state…) → (param', state'…)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent: `p' = p − lr·g`.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with momentum: `v' = μ·v + g; p' = p − lr·v'`.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient μ.
        momentum: f32,
    },
    /// Adam without bias correction (`m̂ = m`, `v̂ = v` — the common
    /// simplification for steady-state training):
    /// `m' = β₁·m + (1−β₁)·g; v' = β₂·v + (1−β₂)·g²;
    ///  p' = p − lr·m'/(√v' + ε)`.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay β₁.
        beta1: f32,
        /// Second-moment decay β₂.
        beta2: f32,
        /// Numerical-stability term ε.
        eps: f32,
    },
}

impl Optimizer {
    /// Adam with the usual defaults (lr only).
    pub fn adam(lr: f32) -> Optimizer {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Number of per-parameter state tensors (momenta).
    pub fn n_state_slots(&self) -> usize {
        match self {
            Optimizer::Sgd { .. } => 0,
            Optimizer::Momentum { .. } => 1,
            Optimizer::Adam { .. } => 2,
        }
    }

    /// Zero-initialized state tensors for a parameter of `shape`.
    pub fn init_state(&self, shape: &Shape) -> Vec<Tensor> {
        (0..self.n_state_slots())
            .map(|_| Tensor::zeros(shape.clone()))
            .collect()
    }

    /// Emits the optimizer arithmetic on already-built `param`, `grad`,
    /// and state nodes, returning `(param', state'…)` node ids. All
    /// three optimizers are purely elementwise, which is what makes the
    /// ZeRO-1 sharded variant bitwise-exact: computing on a first-dim
    /// slice equals slicing the full-tensor result.
    fn emit_math(
        &self,
        b: &mut GraphBuilder,
        p: VarId,
        g: VarId,
        states: &[VarId],
    ) -> Result<Vec<VarId>> {
        match *self {
            Optimizer::Sgd { lr } => {
                let step = b.emit(Prim::Scale(lr), &[g])?;
                let p2 = b.emit(Prim::Sub, &[p, step])?;
                Ok(vec![p2])
            }
            Optimizer::Momentum { lr, momentum } => {
                let v = states[0];
                let mv = b.emit(Prim::Scale(momentum), &[v])?;
                let v2 = b.emit(Prim::Add, &[mv, g])?;
                let step = b.emit(Prim::Scale(lr), &[v2])?;
                let p2 = b.emit(Prim::Sub, &[p, step])?;
                Ok(vec![p2, v2])
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let (m, v) = (states[0], states[1]);
                let m_decay = b.emit(Prim::Scale(beta1), &[m])?;
                let g_scaled = b.emit(Prim::Scale(1.0 - beta1), &[g])?;
                let m2 = b.emit(Prim::Add, &[m_decay, g_scaled])?;
                let v_decay = b.emit(Prim::Scale(beta2), &[v])?;
                let gg = b.emit(Prim::Mul, &[g, g])?;
                let gg_scaled = b.emit(Prim::Scale(1.0 - beta2), &[gg])?;
                let v2 = b.emit(Prim::Add, &[v_decay, gg_scaled])?;
                let root = b.emit(Prim::Sqrt, &[v2])?;
                let denom = b.emit(Prim::AddScalar(eps), &[root])?;
                let dir = b.emit(Prim::Div, &[m2, denom])?;
                let step = b.emit(Prim::Scale(lr), &[dir])?;
                let p2 = b.emit(Prim::Sub, &[p, step])?;
                Ok(vec![p2, m2, v2])
            }
        }
    }

    /// Builds the update graph for one parameter of `shape`.
    ///
    /// Inputs: `param, grad, state…`; outputs: `param', state'…`.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors (none occur for valid
    /// shapes).
    pub fn update_jaxpr(&self, shape: &Shape) -> Result<Jaxpr> {
        let mut b = GraphBuilder::new();
        let p = b.input(shape.clone());
        let g = b.input(shape.clone());
        let states: Vec<VarId> = (0..self.n_state_slots())
            .map(|_| b.input(shape.clone()))
            .collect();
        let outs = self.emit_math(&mut b, p, g, &states)?;
        b.finish(outs)
    }

    /// Builds the ZeRO-1 sharded update graph for one parameter of
    /// `shape`, owning the *first-dim* block `[start, start+len)`.
    ///
    /// The shard axis is dim 0 because it is the one axis the
    /// column-parallel tensor sharding never splits: parameters and
    /// optimizer state are full-shape replicated across TP ranks, so
    /// first-dim slices are identical on every rank and ZeRO-1 composes
    /// with any `tp` degree.
    ///
    /// Inputs: `param` at full shape, then `grad` and `state…` at the
    /// slice shape (the gradient block a data-parallel reduce-scatter
    /// leaves this replica); outputs: the updated parameter slice and
    /// state slices. Because the optimizer math is elementwise, the
    /// all-gather of every replica's parameter slice is bitwise-identical
    /// to the unsharded [`Optimizer::update_jaxpr`] result.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors (none occur for valid
    /// shapes and in-range slices).
    pub fn sharded_update_jaxpr(&self, shape: &Shape, start: usize, len: usize) -> Result<Jaxpr> {
        assert!(shape.rank() >= 1, "sharded update needs rank >= 1");
        let mut dims = shape.dims().to_vec();
        dims[0] = len;
        let slice_shape = Shape::new(dims);
        let mut b = GraphBuilder::new();
        let p = b.input(shape.clone());
        let g = b.input(slice_shape.clone());
        let states: Vec<VarId> = (0..self.n_state_slots())
            .map(|_| b.input(slice_shape.clone()))
            .collect();
        let ps = b.emit(Prim::SliceFirst { start, len }, &[p])?;
        let outs = self.emit_math(&mut b, ps, g, &states)?;
        b.finish(outs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raxpp_ir::eval;

    #[test]
    fn sgd_update() {
        let j = Optimizer::Sgd { lr: 0.1 }
            .update_jaxpr(&Shape::new([2]))
            .unwrap();
        let out = eval(
            &j,
            &[
                Tensor::from_vec([2], vec![1.0, 2.0]).unwrap(),
                Tensor::from_vec([2], vec![10.0, -10.0]).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(out[0].data(), &[0.0, 3.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let opt = Optimizer::Momentum {
            lr: 1.0,
            momentum: 0.5,
        };
        let j = opt.update_jaxpr(&Shape::new([1])).unwrap();
        let p = Tensor::from_vec([1], vec![0.0]).unwrap();
        let g = Tensor::from_vec([1], vec![1.0]).unwrap();
        let v0 = Tensor::zeros([1]);
        let step1 = eval(&j, &[p, g.clone(), v0]).unwrap();
        // v1 = 1, p1 = -1.
        assert_eq!(step1[1].data(), &[1.0]);
        assert_eq!(step1[0].data(), &[-1.0]);
        let step2 = eval(&j, &[step1[0].clone(), g, step1[1].clone()]).unwrap();
        // v2 = 1.5, p2 = -2.5.
        assert_eq!(step2[1].data(), &[1.5]);
        assert_eq!(step2[0].data(), &[-2.5]);
    }

    #[test]
    fn adam_moves_against_gradient() {
        let opt = Optimizer::adam(0.01);
        let j = opt.update_jaxpr(&Shape::new([2])).unwrap();
        let p = Tensor::from_vec([2], vec![1.0, -1.0]).unwrap();
        let g = Tensor::from_vec([2], vec![2.0, -3.0]).unwrap();
        let out = eval(&j, &[p.clone(), g, Tensor::zeros([2]), Tensor::zeros([2])]).unwrap();
        assert!(out[0].data()[0] < p.data()[0]);
        assert!(out[0].data()[1] > p.data()[1]);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn sharded_update_assembles_bitwise() {
        // Concatenating the replicas' updated slices rank-ascending must
        // reproduce the unsharded update bit for bit — the ZeRO-1 half
        // of the DP bitwise contract.
        for opt in [
            Optimizer::Sgd { lr: 0.1 },
            Optimizer::Momentum {
                lr: 0.1,
                momentum: 0.9,
            },
            Optimizer::adam(0.01),
        ] {
            let shape = Shape::new([7, 2]); // uneven dim-0 split: 7 = 4 + 3
            let p = Tensor::from_vec(
                [7, 2],
                (0..14).map(|i| (i as f32 - 6.3) * 0.37).collect::<Vec<_>>(),
            )
            .unwrap();
            let g = Tensor::from_vec(
                [7, 2],
                (0..14).map(|i| (i as f32 * 1.13).sin()).collect::<Vec<_>>(),
            )
            .unwrap();
            let states = opt.init_state(&shape);
            let full_j = opt.update_jaxpr(&shape).unwrap();
            let mut full_in = vec![p.clone(), g.clone()];
            full_in.extend(states.iter().cloned());
            let full_out = eval(&full_j, &full_in).unwrap();

            let mut slices = Vec::new();
            for (start, len) in [(0, 4), (4, 3)] {
                let j = opt.sharded_update_jaxpr(&shape, start, len).unwrap();
                let slice_states = opt.init_state(&Shape::new([len, 2]));
                let mut inputs = vec![p.clone(), g.slice_dim(0, start, len).unwrap()];
                inputs.extend(slice_states);
                slices.push(eval(&j, &inputs).unwrap().swap_remove(0));
            }
            let slices: Vec<&Tensor> = slices.iter().collect();
            assert_eq!(
                Tensor::concat(&slices, 0).unwrap().data(),
                full_out[0].data(),
                "{opt:?} sharded update diverged from unsharded"
            );
        }
    }

    #[test]
    fn state_slot_counts() {
        assert_eq!(Optimizer::Sgd { lr: 0.1 }.n_state_slots(), 0);
        assert_eq!(
            Optimizer::Momentum {
                lr: 0.1,
                momentum: 0.9
            }
            .n_state_slots(),
            1
        );
        assert_eq!(Optimizer::adam(0.1).n_state_slots(), 2);
        assert_eq!(Optimizer::adam(0.1).init_state(&Shape::new([3])).len(), 2);
    }
}
