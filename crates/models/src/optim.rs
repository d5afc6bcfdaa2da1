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
    /// Rewrites `grad` in place into the update direction for this round.
    ///
    /// # Panics
    ///
    /// Implementations panic if `grad` changes length across calls.
    fn direction(&mut self, grad: &mut [f32]);

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
    fn direction(&mut self, _grad: &mut [f32]) {}

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
    fn direction(&mut self, grad: &mut [f32]) {
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; grad.len()];
        }
        assert_eq!(self.velocity.len(), grad.len(), "gradient length changed");
        for (v, g) in self.velocity.iter_mut().zip(grad.iter_mut()) {
            *v = self.mu * *v + *g;
            *g = *v;
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
    fn direction(&mut self, grad: &mut [f32]) {
        if self.m.is_empty() {
            self.m = vec![0.0; grad.len()];
            self.v = vec![0.0; grad.len()];
        }
        assert_eq!(self.m.len(), grad.len(), "gradient length changed");
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for ((m, v), g) in self.m.iter_mut().zip(&mut self.v).zip(grad.iter_mut()) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * *g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * *g * *g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *g = m_hat / (v_hat.sqrt() + self.eps);
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

    #[test]
    fn sgd_is_identity() {
        let mut g = vec![1.0, -2.0, 3.0];
        Sgd::new().direction(&mut g);
        assert_eq!(g, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Momentum::new(0.5);
        let mut g = vec![1.0, 1.0];
        opt.direction(&mut g);
        assert_eq!(g, vec![1.0, 1.0]);
        let mut g2 = vec![1.0, 0.0];
        opt.direction(&mut g2);
        // v = 0.5*[1,1] + [1,0] = [1.5, 0.5]
        assert_eq!(g2, vec![1.5, 0.5]);
    }

    #[test]
    fn momentum_reset_clears_state() {
        let mut opt = Momentum::new(0.9);
        let mut g = vec![1.0];
        opt.direction(&mut g);
        opt.reset();
        let mut g2 = vec![1.0];
        opt.direction(&mut g2);
        assert_eq!(g2, vec![1.0]);
    }

    #[test]
    fn adam_first_step_is_sign_scaled() {
        let mut opt = Adam::new();
        let mut g = vec![10.0, -0.001];
        opt.direction(&mut g);
        // After bias correction the first step is g/(|g|+eps) ≈ ±1.
        assert!((g[0] - 1.0).abs() < 1e-3, "{:?}", g);
        assert!((g[1] + 1.0).abs() < 1e-2, "{:?}", g);
    }

    #[test]
    fn adam_direction_is_bounded() {
        let mut opt = Adam::new();
        for step in 0..50 {
            let mut g: Vec<f32> = (0..8).map(|i| ((i + step) as f32).sin() * 100.0).collect();
            opt.direction(&mut g);
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
                let mut g: Vec<f32> = (0..6).map(|i| ((i + step) as f32 * 0.3).sin()).collect();
                warm.direction(&mut g);
            }
            let snap = warm.state();
            let mut restored = kind.build();
            restored.load_state(&snap);
            for step in 5..10 {
                let mut a: Vec<f32> = (0..6).map(|i| ((i + step) as f32 * 0.3).sin()).collect();
                let mut b = a.clone();
                warm.direction(&mut a);
                restored.direction(&mut b);
                assert_eq!(a, b, "{kind:?} diverged after restore at step {step}");
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
