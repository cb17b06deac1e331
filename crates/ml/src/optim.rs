//! First-order optimisers shared across the learning substrates.
//!
//! The MLP, logistic regression and the GCN encoder all train with Adam;
//! keeping the state here avoids three private copies of the same update
//! rule.

/// Adam optimiser state for one parameter tensor (Kingma & Ba, 2015).
///
/// The caller owns the step counter `t` so that several tensors updated in
/// the same optimisation step share one bias-correction schedule.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// First-moment decay rate.
    pub const BETA1: f64 = 0.9;
    /// Second-moment decay rate.
    pub const BETA2: f64 = 0.999;
    /// Denominator fuzz.
    pub const EPS: f64 = 1e-8;

    /// Fresh state for a tensor of `len` parameters.
    pub fn new(len: usize) -> Self {
        Adam {
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Applies one Adam update to `params` given `grads`, at global step
    /// `t` (1-based) and learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `params`/`grads` lengths differ from the state length or
    /// if `t` is zero (bias correction would divide by zero).
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64, t: usize) {
        assert_eq!(params.len(), self.m.len(), "parameter length mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient length mismatch");
        assert!(t > 0, "Adam step counter is 1-based");
        let bc1 = 1.0 - Self::BETA1.powi(t as i32);
        let bc2 = 1.0 - Self::BETA2.powi(t as i32);
        // Zipped slices carry no bounds checks, so the compiler can
        // vectorize the loop; every element's arithmetic is unchanged.
        let state = self.m.iter_mut().zip(self.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(state) {
            *m = Self::BETA1 * *m + (1.0 - Self::BETA1) * g;
            *v = Self::BETA2 * *v + (1.0 - Self::BETA2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + Self::EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descends_a_quadratic() {
        // Minimise f(x) = (x - 3)²; gradient 2(x - 3).
        let mut x = vec![0.0f64];
        let mut adam = Adam::new(1);
        for t in 1..=2000 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g, 0.05, t);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "converged to {}", x[0]);
    }

    #[test]
    fn first_step_is_learning_rate_sized() {
        // With bias correction, the very first Adam step has magnitude
        // ≈ lr regardless of gradient scale.
        for &g0 in &[1e-6, 1.0, 1e6] {
            let mut x = vec![0.0f64];
            let mut adam = Adam::new(1);
            adam.step(&mut x, &[g0], 0.01, 1);
            assert!(
                (x[0].abs() - 0.01).abs() < 1e-4,
                "step {} for grad {g0}",
                x[0]
            );
        }
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn rejects_mismatched_lengths() {
        let mut adam = Adam::new(2);
        let mut x = vec![0.0];
        adam.step(&mut x, &[1.0], 0.1, 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rejects_zero_step() {
        let mut adam = Adam::new(1);
        let mut x = vec![0.0];
        adam.step(&mut x, &[1.0], 0.1, 0);
    }
}
