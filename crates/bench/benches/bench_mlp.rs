//! Criterion bench: classifier training and inference (the "Train" and
//! per-candidate inference slices of Fig. 6).

use criterion::{criterion_group, criterion_main, Criterion};
use marioh_ml::{Mlp, TrainConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bench_mlp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let dim = 23; // multiplicity-aware feature dimensionality
    let xs: Vec<Vec<f64>> = (0..512)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| f64::from(x[0] + x[1] > 0.0)).collect();
    let rows = xs.concat();

    c.bench_function("mlp_train_512x23", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut mlp = Mlp::new(dim, &[64, 32], &mut rng);
            let cfg = TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            };
            std::hint::black_box(mlp.train(&rows, &ys, &cfg, &mut rng))
        });
    });

    let mut rng = StdRng::seed_from_u64(2);
    let mlp = Mlp::new(dim, &[64, 32], &mut rng);
    c.bench_function("mlp_predict_512x23", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for x in &xs {
                acc += mlp.predict(x);
            }
            std::hint::black_box(acc)
        });
    });
}

criterion_group!(benches, bench_mlp);
criterion_main!(benches);
