//! Inference latency of every forecaster — the "Inference (ms)" column of
//! Table II. The paper's bar: inference must fit far inside the 20 ms
//! control period even on weak hardware.
//!
//! The `lane_layout` group is the evidence behind
//! `foreco_forecast::SLOT_MAJOR_MIN_WIDTH`: per-member forecast time of
//! the scalar path against a slot-major lane, for each expensive family
//! at widths straddling the threshold. Run with
//! `cargo bench -p foreco-bench --bench forecasters`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use foreco_forecast::{
    BatchLane, ForecastScratch, Forecaster, HistoryView, Holt, KalmanCv, LaneLayout, MovingAverage,
    Seq2SeqForecaster, Seq2SeqTrainConfig, Var, Varma,
};
use foreco_teleop::{Dataset, Skill};
use std::hint::black_box;
use std::sync::Arc;

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

/// Per-member scalar `forecast_into` against one slot-major lane, each
/// timed per member forecast. The scalar arm reads every member's
/// window in place, as an engine's miss path does; the slot-major arm
/// pays what a shard pass pays for a lane: gather every window,
/// transpose, run the lane kernel. Each iteration covers about 4096
/// member forecasts, so narrow lanes are not dominated by timer
/// overhead. The two arms are checked bit-identical before timing.
fn bench_lane_layouts(c: &mut Criterion) {
    let train = Dataset::record(Skill::Experienced, 4, 0.02, 1);
    let families: [(&str, Arc<dyn Forecaster>); 2] = [
        (
            "var_r5",
            Arc::new(Var::fit_differenced(&train, 5, 1e-6).unwrap()),
        ),
        ("kalman_r5", Arc::new(KalmanCv::default_teleop(5, 6))),
    ];
    let mut group = c.benchmark_group("lane_layout");
    group.sample_size(51);
    for (name, f) in &families {
        let (rows, dims) = (f.history_len(), f.dims());
        for width in [8, 16, 31, 32, 33, 64, 256] {
            // Member m's window starts m rows into the recording.
            let windows: Vec<f64> = (0..width)
                .flat_map(|m| train.commands[m..m + rows].iter().flatten().copied())
                .collect();
            let rounds = (4096 / width).max(1);
            let mut scratch = ForecastScratch::new();
            let mut out = vec![0.0; width * dims];
            let scalar = |scratch: &mut ForecastScratch, out: &mut [f64]| {
                for (w, o) in windows
                    .chunks_exact(rows * dims)
                    .zip(out.chunks_exact_mut(dims))
                {
                    f.forecast_into(&HistoryView::contiguous(w, dims), scratch, o);
                }
            };
            let mut lane = BatchLane::new(Arc::clone(f));
            let slot_major = |lane: &mut BatchLane, scratch: &mut ForecastScratch| {
                lane.clear();
                for w in windows.chunks_exact(rows * dims) {
                    lane.push_window(&HistoryView::contiguous(w, dims));
                }
                lane.run_layout(LaneLayout::SlotMajor, scratch);
            };
            scalar(&mut scratch, &mut out);
            slot_major(&mut lane, &mut scratch);
            for (m, expect) in out.chunks_exact(dims).enumerate() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(lane.result(m)), bits(expect), "{name} w{width} m{m}");
            }
            group.throughput(Throughput::Elements((rounds * width) as u64));
            group.bench_function(&format!("{name}/w{width}/scalar"), |b| {
                b.iter(|| {
                    for _ in 0..rounds {
                        scalar(&mut scratch, &mut out);
                    }
                    black_box(&out);
                })
            });
            group.bench_function(&format!("{name}/w{width}/slot_major"), |b| {
                b.iter(|| {
                    for _ in 0..rounds {
                        slot_major(&mut lane, &mut scratch);
                    }
                    black_box(lane.result(0));
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forecasters,
    bench_training,
    bench_lane_layouts
);
criterion_main!(benches);
