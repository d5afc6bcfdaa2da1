//! Local optimizers: SGD, Momentum, and Adam.
//!
//! In the paper's experiments the *local* optimizer shapes the gradient each
//! worker feeds to the synchronization layer ("The optimizer for image
//! classification task is Momentum, and Adam for sentiment analysis",
//! Section 5). An [`Optimizer`] therefore transforms a raw stochastic
//! gradient into an update *direction*; the synchronization strategy decides
//! how directions are compressed, aggregated, and applied.

/// Transforms raw gradients into update directions, carrying internal state
/// (momentum buffers, Adam moments) across rounds.
pub trait Optimizer: Send {
    /// Advances the internal state by the raw gradient `grad` and writes this
    /// round's update direction, scaled by the learning rate `lr`, to `out`:
    /// one sweep over `grad`, the state and `out`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `grad` and `out` differ in length or `grad`
    /// changes length across calls.
    fn direction_into(&mut self, grad: &[f32], lr: f32, out: &mut [f32]);

    /// Resets internal state (used when a training run is restarted).
    fn reset(&mut self);

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Captures the internal state for deterministic checkpointing.
    fn state(&self) -> OptimizerState;

    /// Restores state captured by [`Optimizer::state`].
    ///
    /// # Panics
    ///
    /// Implementations panic if `state` was captured from a different
    /// optimizer kind.
    fn load_state(&mut self, state: &OptimizerState);
}

/// Serializable internal state of an [`Optimizer`] (deterministic
/// checkpoint/restore: a restored optimizer continues bit-identically).
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerState {
    /// Plain SGD carries no state.
    Sgd,
    /// Momentum's velocity buffer (empty before the first step).
    Momentum {
        /// The heavy-ball velocity `v`.
        velocity: Vec<f32>,
    },
    /// Adam's step counter and first/second moment buffers.
    Adam {
        /// Steps taken so far (drives bias correction).
        step: u32,
        /// First-moment estimate.
        m: Vec<f32>,
        /// Second-moment estimate.
        v: Vec<f32>,
    },
}

/// Plain stochastic gradient descent: the direction is the gradient itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sgd;

impl Sgd {
    /// Creates a plain-SGD optimizer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Optimizer for Sgd {
    fn direction_into(&mut self, grad: &[f32], lr: f32, out: &mut [f32]) {
        assert_eq!(out.len(), grad.len(), "output length mismatch");
        for (o, &g) in out.iter_mut().zip(grad) {
            *o = g * lr;
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "sgd"
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Sgd
    }

    fn load_state(&mut self, state: &OptimizerState) {
        assert!(
            matches!(state, OptimizerState::Sgd),
            "state kind mismatch: expected Sgd"
        );
    }
}

/// Heavy-ball momentum: `v ← μ·v + g`, direction `v`.
#[derive(Debug, Clone, PartialEq)]
pub struct Momentum {
    mu: f32,
    velocity: Vec<f32>,
}

impl Momentum {
    /// Creates a momentum optimizer with coefficient `mu` (typically 0.9).
    ///
    /// # Panics
    ///
    /// Panics if `mu` is not in `[0, 1)`.
    #[must_use]
    pub fn new(mu: f32) -> Self {
        assert!((0.0..1.0).contains(&mu), "momentum must be in [0, 1)");
        Self {
            mu,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Momentum {
    fn direction_into(&mut self, grad: &[f32], lr: f32, out: &mut [f32]) {
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; grad.len()];
        }
        assert_eq!(self.velocity.len(), grad.len(), "gradient length changed");
        assert_eq!(out.len(), grad.len(), "output length mismatch");
        for ((v, &g), o) in self.velocity.iter_mut().zip(grad).zip(out) {
            *v = self.mu * *v + g;
            *o = *v * lr;
        }
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn name(&self) -> &'static str {
        "momentum"
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Momentum {
            velocity: self.velocity.clone(),
        }
    }

    fn load_state(&mut self, state: &OptimizerState) {
        let OptimizerState::Momentum { velocity } = state else {
            panic!("state kind mismatch: expected Momentum");
        };
        self.velocity = velocity.clone();
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u32,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Creates Adam with the standard defaults `β₁=0.9, β₂=0.999, ε=1e-8`.
    #[must_use]
    pub fn new() -> Self {
        Self::with_betas(0.9, 0.999, 1e-8)
    }

    /// Creates Adam with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if betas are outside `[0, 1)` or `eps <= 0`.
    #[must_use]
    pub fn with_betas(beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2),
            "betas in [0,1)"
        );
        assert!(eps > 0.0, "eps must be positive");
        Self {
            beta1,
            beta2,
            eps,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Self::new()
    }
}

impl Optimizer for Adam {
    fn direction_into(&mut self, grad: &[f32], lr: f32, out: &mut [f32]) {
        if self.m.is_empty() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
        }
        assert_eq!(self.m.len(), grad.len(), "gradient length changed");
        assert_eq!(out.len(), grad.len(), "output length mismatch");
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for (((m, v), &g), o) in self.m.iter_mut().zip(&mut self.v).zip(grad).zip(out) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *o = m_hat / (v_hat.sqrt() + self.eps) * lr;
        }
    }

    fn reset(&mut self) {
        self.step = 0;
        self.m.clear();
        self.v.clear();
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Adam {
            step: self.step,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    fn load_state(&mut self, state: &OptimizerState) {
        let OptimizerState::Adam { step, m, v } = state else {
            panic!("state kind mismatch: expected Adam");
        };
        self.step = *step;
        self.m = m.clone();
        self.v = v.clone();
    }
}

/// Optimizer selection used by experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OptimizerKind {
    /// Plain SGD.
    #[default]
    Sgd,
    /// Heavy-ball momentum with the given coefficient.
    Momentum(f32),
    /// Adam with default betas.
    Adam,
}

impl OptimizerKind {
    /// Instantiates the optimizer.
    #[must_use]
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            Self::Sgd => Box::new(Sgd::new()),
            Self::Momentum(mu) => Box::new(Momentum::new(mu)),
            Self::Adam => Box::new(Adam::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_tensor::rng::FastRng;

    /// One unscaled step: the direction itself.
    fn direction(opt: &mut dyn Optimizer, grad: &[f32]) -> Vec<f32> {
        let mut out = vec![f32::NAN; grad.len()];
        opt.direction_into(grad, 1.0, &mut out);
        out
    }

    #[test]
    fn sgd_is_identity() {
        assert_eq!(
            direction(&mut Sgd::new(), &[1.0, -2.0, 3.0]),
            [1.0, -2.0, 3.0]
        );
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Momentum::new(0.5);
        assert_eq!(direction(&mut opt, &[1.0, 1.0]), [1.0, 1.0]);
        // v = 0.5*[1,1] + [1,0] = [1.5, 0.5]
        assert_eq!(direction(&mut opt, &[1.0, 0.0]), [1.5, 0.5]);
    }

    #[test]
    fn momentum_reset_clears_state() {
        let mut opt = Momentum::new(0.9);
        let _ = direction(&mut opt, &[1.0]);
        opt.reset();
        assert_eq!(direction(&mut opt, &[1.0]), [1.0]);
    }

    #[test]
    fn adam_first_step_is_sign_scaled() {
        let g = direction(&mut Adam::new(), &[10.0, -0.001]);
        // After bias correction the first step is g/(|g|+eps) ≈ ±1.
        assert!((g[0] - 1.0).abs() < 1e-3, "{:?}", g);
        assert!((g[1] + 1.0).abs() < 1e-2, "{:?}", g);
    }

    #[test]
    fn adam_direction_is_bounded() {
        let mut opt = Adam::new();
        for step in 0..50 {
            let g: Vec<f32> = (0..8).map(|i| ((i + step) as f32).sin() * 100.0).collect();
            let g = direction(&mut opt, &g);
            assert!(g.iter().all(|x| x.abs() < 5.0), "unbounded direction {g:?}");
        }
    }

    #[test]
    fn kind_builds_correct_optimizer() {
        assert_eq!(OptimizerKind::Sgd.build().name(), "sgd");
        assert_eq!(OptimizerKind::Momentum(0.9).build().name(), "momentum");
        assert_eq!(OptimizerKind::Adam.build().name(), "adam");
    }

    #[test]
    fn state_roundtrip_resumes_bit_identically() {
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::Momentum(0.9),
            OptimizerKind::Adam,
        ] {
            let mut warm = kind.build();
            for step in 0..5 {
                let g: Vec<f32> = (0..6).map(|i| ((i + step) as f32 * 0.3).sin()).collect();
                let _ = direction(warm.as_mut(), &g);
            }
            let snap = warm.state();
            let mut restored = kind.build();
            restored.load_state(&snap);
            for step in 5..10 {
                let g: Vec<f32> = (0..6).map(|i| ((i + step) as f32 * 0.3).sin()).collect();
                let a = direction(warm.as_mut(), &g);
                let b = direction(restored.as_mut(), &g);
                assert_eq!(a, b, "{kind:?} diverged after restore at step {step}");
            }
        }
    }

    /// The step `direction_into` fused, kept as its reference: copy the raw
    /// gradient, rewrite the copy in place into the direction (the bodies of
    /// the former `Optimizer::direction`, over a state of their own), then
    /// scale it by `lr`.
    fn reference_step(
        kind: OptimizerKind,
        state: &mut OptimizerState,
        grad: &[f32],
        lr: f32,
    ) -> Vec<f32> {
        let mut update = grad.to_vec();
        match (kind, state) {
            (OptimizerKind::Sgd, OptimizerState::Sgd) => {}
            (OptimizerKind::Momentum(mu), OptimizerState::Momentum { velocity }) => {
                if velocity.is_empty() {
                    *velocity = vec![0.0; update.len()];
                }
                for (v, g) in velocity.iter_mut().zip(update.iter_mut()) {
                    *v = mu * *v + *g;
                    *g = *v;
                }
            }
            (OptimizerKind::Adam, OptimizerState::Adam { step, m, v }) => {
                let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
                if m.is_empty() {
                    *m = vec![0.0; update.len()];
                    *v = vec![0.0; update.len()];
                }
                *step += 1;
                let bc1 = 1.0 - beta1.powi(*step as i32);
                let bc2 = 1.0 - beta2.powi(*step as i32);
                for ((m, v), g) in m.iter_mut().zip(v.iter_mut()).zip(update.iter_mut()) {
                    *m = beta1 * *m + (1.0 - beta1) * *g;
                    *v = beta2 * *v + (1.0 - beta2) * *g * *g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *g = m_hat / (v_hat.sqrt() + eps);
                }
            }
            (kind, state) => panic!("{kind:?} does not own {state:?}"),
        }
        for g in &mut update {
            *g *= lr;
        }
        update
    }

    /// Every bit of a state: Adam's step counter, then each buffer.
    fn state_bits(state: &OptimizerState) -> Vec<u32> {
        match state {
            OptimizerState::Sgd => Vec::new(),
            OptimizerState::Momentum { velocity } => velocity.iter().map(|x| x.to_bits()).collect(),
            OptimizerState::Adam { step, m, v } => std::iter::once(*step)
                .chain(m.iter().chain(v).map(|x| x.to_bits()))
                .collect(),
        }
    }

    /// `direction_into` equals copy → direction → scale by `to_bits`, output
    /// and state, for every optimizer over 50 steps of gradients spanning
    /// eight decades (exact zeros and `−0.0` included) and four learning
    /// rates, across a `state` / `load_state` round trip at step 25.
    #[test]
    fn direction_into_matches_copy_direction_scale() {
        const D: usize = 37;
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::Momentum(0.9),
            OptimizerKind::Adam,
        ] {
            let mut rng = FastRng::new(0x0971, 3);
            let mut opt = kind.build();
            let mut reference = opt.state();
            let mut out = vec![f32::NAN; D];
            for step in 0..50 {
                if step == 25 {
                    let snap = opt.state();
                    opt = kind.build();
                    opt.load_state(&snap);
                }
                let grad: Vec<f32> = (0..D)
                    .map(|i| match rng.next_range(8) {
                        0 => 0.0,
                        1 => -0.0,
                        scale => {
                            (rng.next_f64() as f32 - 0.5)
                                * 10f32.powi(scale as i32 - 5 + i as i32 % 3)
                        }
                    })
                    .collect();
                let lr = [0.05, 1e-3, 1.0, 0.1][step % 4];
                let want = reference_step(kind, &mut reference, &grad, lr);
                opt.direction_into(&grad, lr, &mut out);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "{kind:?} output at step {step}");
                assert_eq!(
                    state_bits(&opt.state()),
                    state_bits(&reference),
                    "{kind:?} state at step {step}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "state kind mismatch")]
    fn cross_kind_state_load_panics() {
        let snap = Momentum::new(0.9).state();
        Adam::new().load_state(&snap);
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn invalid_momentum_panics() {
        let _ = Momentum::new(1.0);
    }
}
