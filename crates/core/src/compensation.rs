//! The global compensation mechanism (paper Section 4.1.3).
//!
//! After a one-bit synchronization the global update `g_t` differs from the
//! worker's intended update `g_t^{(m)} = η_l·g + c_t^{(m)}`; the difference
//! is carried forward as the compensation vector
//! `c_{t+1}^{(m)} = g_t^{(m)} − g_t` and folded into the next round's
//! gradient (Algorithm 1, lines 1 and 10). A full-precision synchronization
//! applies the average of the `g_t^{(m)}` exactly, so the residual resets to
//! zero (line 13).

/// `c ← h − g` elementwise (Algorithm 1, line 10), on whole vectors or on
/// one lane's columns of them.
pub(crate) fn absorb(c: &mut [f32], h: &[f32], g: &[f32]) {
    for ((c, &h), &g) in c.iter_mut().zip(h).zip(g) {
        *c = h - g;
    }
}

/// One worker's compensation state.
///
/// # Examples
///
/// ```
/// use marsit_core::compensation::Compensation;
///
/// let mut c = Compensation::new(3);
/// let with_comp = c.apply(&[1.0, -2.0, 0.5]);
/// assert_eq!(with_comp, vec![1.0, -2.0, 0.5]); // c starts at zero
/// c.absorb_residual(&with_comp, &[0.5, -1.0, 0.25]);
/// assert_eq!(c.vector(), &[0.5f32, -1.0, 0.25][..]);
/// ```
#[derive(Debug, Clone)]
pub struct Compensation {
    c: Vec<f32>,
    /// `c` is all `+0.0` because nothing wrote it since [`Compensation::new`]
    /// or [`Compensation::reset`]; every other write clears this.
    reset: bool,
}

/// Equal residual values; how they came about is not compared.
impl PartialEq for Compensation {
    fn eq(&self, other: &Self) -> bool {
        self.c == other.c
    }
}

impl AsRef<[f32]> for Compensation {
    fn as_ref(&self) -> &[f32] {
        &self.c
    }
}

impl Compensation {
    /// Creates a zero compensation vector of dimension `d`
    /// (Algorithm 2, line 1).
    #[must_use]
    pub fn new(d: usize) -> Self {
        Self {
            c: vec![0.0; d],
            reset: true,
        }
    }

    /// Dimension of the compensation vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.c.len()
    }

    /// Whether the vector has zero dimension.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.c.is_empty()
    }

    /// The current residual.
    #[must_use]
    pub fn vector(&self) -> &[f32] {
        &self.c
    }

    /// Whether the residual is all zero because nothing wrote it since
    /// construction or the last [`Compensation::reset`] — knowable without
    /// reading it. (A residual that became zero by arithmetic reports
    /// `false`.)
    #[must_use]
    pub(crate) fn is_reset(&self) -> bool {
        self.reset
    }

    /// Squared ℓ2-norm of the residual (the quantity bounded in the proof of
    /// Theorem 1, Eq. 7).
    ///
    /// Uses the striped eight-lane fold so the result is bit-identical to the
    /// fused walk that computes the same norm without materializing `c`
    /// (`Marsit::mean_compensation_norm_sq` on the deferred path).
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        marsit_tensor::stats::norm_l2_sq_striped(&self.c)
    }

    /// Algorithm 1, line 1: returns `update + c` (the compensated local
    /// update `g_t^{(m)}`).
    ///
    /// # Panics
    ///
    /// Panics if `update.len()` differs from the state dimension.
    #[must_use]
    pub fn apply(&self, update: &[f32]) -> Vec<f32> {
        assert_eq!(update.len(), self.c.len(), "dimension mismatch");
        update.iter().zip(&self.c).map(|(&u, &c)| u + c).collect()
    }

    /// [`Compensation::apply`] into a caller-owned buffer, reusing its
    /// capacity (the round-workspace path).
    ///
    /// # Panics
    ///
    /// Panics if `update.len()` differs from the state dimension.
    pub fn apply_into(&self, update: &[f32], out: &mut Vec<f32>) {
        assert_eq!(update.len(), self.c.len(), "dimension mismatch");
        out.clear();
        out.extend(update.iter().zip(&self.c).map(|(&u, &c)| u + c));
    }

    /// Algorithm 1, line 10: `c ← g^{(m)} − g_t` after a one-bit round.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn absorb_residual(&mut self, compensated_update: &[f32], global_update: &[f32]) {
        assert_eq!(compensated_update.len(), self.c.len(), "dimension mismatch");
        assert_eq!(global_update.len(), self.c.len(), "dimension mismatch");
        self.reset = false;
        absorb(&mut self.c, compensated_update, global_update);
    }

    /// The residual's values, for a laned sweep that writes or reads them in
    /// place; `reset` says whether they are all `+0.0` once it is done.
    pub(crate) fn values_for_sweep(&mut self, reset: bool) -> &mut [f32] {
        self.reset = reset;
        &mut self.c
    }

    /// Algorithm 1, line 13: reset after a full-precision round.
    pub fn reset(&mut self) {
        self.c.fill(0.0);
        self.reset = true;
    }

    /// Overwrites the residual with checkpointed values (the restore half of
    /// deterministic checkpointing; see `Marsit::restore`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn restore(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.c.len(), "dimension mismatch");
        self.c.copy_from_slice(values);
        self.reset = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_telescopes() {
        // Invariant: c_{t+1} + applied = intended, i.e. nothing is lost.
        let mut c = Compensation::new(4);
        let mut intended_total = [0.0f64; 4];
        let mut applied_total = [0.0f64; 4];
        for t in 0..50 {
            let update: Vec<f32> = (0..4).map(|i| ((t * 4 + i) as f32 * 0.7).sin()).collect();
            let h = c.apply(&update);
            // Global update: crude sign step (what one-bit sync produces).
            let g: Vec<f32> = h.iter().map(|&x| 0.05 * x.signum()).collect();
            c.absorb_residual(&h, &g);
            for i in 0..4 {
                intended_total[i] += f64::from(update[i]);
                applied_total[i] += f64::from(g[i]);
            }
        }
        for (i, (&intended, &applied)) in intended_total.iter().zip(&applied_total).enumerate() {
            let residual = intended - applied;
            assert!(
                (residual - f64::from(c.vector()[i])).abs() < 1e-4,
                "coord {i}: residual {residual} vs c {}",
                c.vector()[i]
            );
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = Compensation::new(3);
        assert!(c.is_reset());
        c.absorb_residual(&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]);
        assert!(c.norm_sq() > 0.0);
        assert!(!c.is_reset());
        c.reset();
        assert!(c.is_reset());
        assert_eq!(c.norm_sq(), 0.0);
        c.restore(&[0.0; 3]);
        assert!(!c.is_reset(), "a restore is a write");
        assert_eq!(c, Compensation::new(3), "equality compares values only");
    }

    #[test]
    fn apply_adds_residual() {
        let mut c = Compensation::new(2);
        c.absorb_residual(&[1.0, 1.0], &[0.25, 0.5]);
        assert_eq!(c.apply(&[0.0, 0.0]), vec![0.75, 0.5]);
    }

    #[test]
    fn apply_into_matches_apply_and_reuses_buffer() {
        let mut c = Compensation::new(3);
        c.absorb_residual(&[1.0, -2.0, 0.5], &[0.25, 0.5, -0.5]);
        let update = [0.1f32, 0.2, 0.3];
        let mut buf = Vec::with_capacity(8);
        buf.extend_from_slice(&[9.0, 9.0]); // stale contents must be cleared
        let ptr = buf.as_ptr();
        c.apply_into(&update, &mut buf);
        assert_eq!(buf, c.apply(&update));
        assert_eq!(buf.as_ptr(), ptr, "capacity was reused, not reallocated");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let c = Compensation::new(2);
        let _ = c.apply(&[1.0]);
    }
}
