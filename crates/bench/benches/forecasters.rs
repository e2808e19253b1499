//! Inference latency of every forecaster — the "Inference (ms)" column of
//! Table II. The paper's bar: inference must fit far inside the 20 ms
//! control period even on weak hardware. Run with
//! `cargo bench -p foreco-bench --bench forecasters`.

use criterion::{criterion_group, criterion_main, Criterion};
use foreco_forecast::{
    Forecaster, Holt, MovingAverage, Seq2SeqForecaster, Seq2SeqTrainConfig, Var, Varma,
};
use foreco_teleop::{Dataset, Skill};
use std::hint::black_box;

fn bench_forecasters(c: &mut Criterion) {
    let train = Dataset::record(Skill::Experienced, 4, 0.02, 1);
    let hist: Vec<Vec<f64>> = train.commands[..24].to_vec();

    let mut group = c.benchmark_group("inference");
    let ma = MovingAverage::new(20, 6);
    group.bench_function("ma_r20", |b| {
        b.iter(|| black_box(ma.forecast(black_box(&hist))))
    });

    let var = Var::fit_differenced(&train, 5, 1e-6).unwrap();
    group.bench_function("var_r5", |b| {
        b.iter(|| black_box(var.forecast(black_box(&hist))))
    });

    let var20 = Var::fit_differenced(&train, 20, 1e-6).unwrap();
    group.bench_function("var_r20", |b| {
        b.iter(|| black_box(var20.forecast(black_box(&hist))))
    });

    let holt = Holt::default_teleop(10, 6);
    group.bench_function("holt_r10", |b| {
        b.iter(|| black_box(holt.forecast(black_box(&hist))))
    });

    let varma = Varma::fit(&train, 4, 2, 1e-6).unwrap();
    group.bench_function("varma_4_2", |b| {
        b.iter(|| black_box(varma.forecast(black_box(&hist))))
    });

    let s2s = Seq2SeqForecaster::fit(
        &train,
        &Seq2SeqTrainConfig {
            r: 5,
            epochs: 1,
            subsample: 512,
            ..Default::default()
        },
    );
    group.bench_function("seq2seq_200_30", |b| {
        b.iter(|| black_box(s2s.forecast(black_box(&hist))))
    });
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    let train = Dataset::record(Skill::Experienced, 4, 0.02, 2);
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.bench_function("var_r5_fit", |b| {
        b.iter(|| black_box(Var::fit_differenced(black_box(&train), 5, 1e-6).unwrap()))
    });
    group.bench_function("var_r20_fit", |b| {
        b.iter(|| black_box(Var::fit_differenced(black_box(&train), 20, 1e-6).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_forecasters, bench_training);
criterion_main!(benches);
