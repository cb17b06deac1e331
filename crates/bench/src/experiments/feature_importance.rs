//! Online-appendix experiment: permutation importance of the
//! multiplicity-aware clique features.
//!
//! A classifier is trained on a dataset's source half; each feature
//! column of a held-out validation set is then permuted in turn and the
//! AUC drop recorded — the standard model-agnostic importance measure.

use super::ExperimentEnv;
use crate::runner::cell_rng;
use crate::table::Table;
use marioh_core::features::{feature_names, FeatureMode};
use marioh_core::training::{build_training_set, TrainingConfig};
use marioh_datasets::split::split_source_target;
use marioh_datasets::PaperDataset;
use marioh_ml::metrics::auc;
use marioh_ml::{Mlp, StandardScaler};
use rand::Rng;

/// Runs permutation importance on the given dataset's source half and
/// returns features sorted by importance (AUC drop).
pub fn run(env: &ExperimentEnv, dataset: PaperDataset) -> Table {
    let data = env.dataset(dataset);
    let mut split_rng = cell_rng(data.name, "split", 0);
    let (source, _) = split_source_target(&data.hypergraph.reduce_multiplicity(), &mut split_rng);
    let mut rng = cell_rng(data.name, "feat-imp", 0);

    let cfg = TrainingConfig::default();
    let set = build_training_set(&source, &cfg, &mut rng);
    let n = set.labels.len();
    let dim = FeatureMode::Multiplicity.dim();
    let row = |i: usize| set.features[i * dim..(i + 1) * dim].to_vec();
    assert!(n >= 10, "training set too small for importance analysis");

    // 80/20 train/validation split.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let n_train = (n * 4) / 5;
    let (train_idx, val_idx) = idx.split_at(n_train);
    let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| row(i)).collect();
    let train_y: Vec<f64> = train_idx.iter().map(|&i| set.labels[i]).collect();
    let val_x: Vec<Vec<f64>> = val_idx.iter().map(|&i| row(i)).collect();
    let val_y: Vec<u8> = val_idx.iter().map(|&i| set.labels[i] as u8).collect();

    let scaler = StandardScaler::fit(&train_x);
    let train_x = scaler.transform_batch(&train_x);
    let val_x = scaler.transform_batch(&val_x);
    let mut mlp = Mlp::new(FeatureMode::Multiplicity.dim(), &cfg.hidden, &mut rng);
    mlp.train(&train_x.concat(), &train_y, &cfg.optimizer, &mut rng);

    let base_scores = mlp.predict_batch(&val_x);
    let base_auc = auc(&base_scores, &val_y);
    eprintln!("[features] baseline validation AUC: {base_auc:.4}");

    let names = feature_names(FeatureMode::Multiplicity);
    let mut importances: Vec<(String, f64)> = Vec::with_capacity(names.len());
    for (col, name) in names.iter().enumerate() {
        // Permute column `col` of the validation set.
        let mut permuted = val_x.clone();
        let mut perm: Vec<usize> = (0..permuted.len()).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let col_vals: Vec<f64> = perm.iter().map(|&i| val_x[i][col]).collect();
        for (row, v) in permuted.iter_mut().zip(col_vals) {
            row[col] = v;
        }
        let scores = mlp.predict_batch(&permuted);
        importances.push((name.clone(), base_auc - auc(&scores, &val_y)));
    }
    importances.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importance"));

    let mut t = Table::new(vec!["Feature", "AUC drop when permuted"]);
    for (name, drop) in importances {
        t.add_row(vec![name, format!("{drop:+.4}")]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::HarnessConfig;
    use std::time::Duration;

    #[test]
    fn importance_table_covers_all_features() {
        let env = ExperimentEnv::new(HarnessConfig {
            scale: Some(0.3),
            seeds: 1,
            budget: Duration::from_secs(60),
        });
        let t = run(&env, PaperDataset::Crime);
        assert_eq!(t.len(), FeatureMode::Multiplicity.dim());
    }
}
