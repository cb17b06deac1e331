//! Logistic regression (used by the link-prediction task, Table IX).

use crate::mlp::{Mlp, TrainConfig, TrainStats};
use rand::Rng;

/// Logistic regression implemented as a zero-hidden-layer [`Mlp`].
///
/// The paper trains a shared classifier over hand-crafted link features;
/// a linear model keeps that comparison about the *features* (projected
/// graph vs. reconstructed hypergraph), which is the experiment's point.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    inner: Mlp,
}

impl LogisticRegression {
    /// Creates an untrained model for `dim`-dimensional inputs.
    pub fn new<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        LogisticRegression {
            inner: Mlp::new(dim, &[], rng),
        }
    }

    /// Trains with Adam on BCE (see [`Mlp::train`]).
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        cfg: &TrainConfig,
        rng: &mut R,
    ) -> TrainStats {
        self.inner.train(&xs.concat(), ys, cfg, rng)
    }

    /// Predicted probability of the positive class.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.inner.predict(x)
    }

    /// Batch prediction.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.inner.predict_batch(xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn separates_linear_data() {
        let mut rng = StdRng::seed_from_u64(0);
        use rand::Rng;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..300 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            xs.push(vec![a, b]);
            ys.push(f64::from(2.0 * a - b > 0.1));
        }
        let mut lr = LogisticRegression::new(2, &mut rng);
        let stats = lr.train(&xs, &ys, &TrainConfig::default(), &mut rng);
        assert!(stats.train_accuracy > 0.93, "{}", stats.train_accuracy);
    }

    #[test]
    fn outputs_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        let lr = LogisticRegression::new(3, &mut rng);
        let p = lr.predict(&[100.0, -100.0, 0.0]);
        assert!((0.0..=1.0).contains(&p));
    }
}
