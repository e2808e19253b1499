//! Table II — training and inference times. The paper measures VAR on
//! four hardware tiers (Raspberry Pi 3, Jetson Nano, laptop, Xeon
//! server); we have one host, so its rows are measured and the paper's
//! rows are quoted for shape comparison (training ≫ inference; inference
//! ≪ Ω = 20 ms).
//!
//! Training rows time `Var::fit_differenced` at R = 5 and R = 20.
//! Inference rows time every forecaster family through its one
//! `forecast_into` body, over a reused scratch and output buffer, on
//! sliding windows of the recording. Before timing, each row checks that
//! body against `Forecaster::forecast`, bit for bit.
//!
//! ```sh
//! cargo run --release -p foreco-bench --bin table2_train_infer
//! ```

use foreco_bench::{banner, OMEGA};
use foreco_forecast::{
    ForecastScratch, Forecaster, HistoryView, Holt, MovingAverage, Seq2SeqForecaster,
    Seq2SeqTrainConfig, Var, Varma,
};
use foreco_linalg::stats::Running;
use foreco_teleop::{Dataset, Skill};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each inference row runs for, at least.
const ROW_BUDGET: Duration = Duration::from_millis(200);
/// Calls each inference row makes, at least; also the number of calls
/// between two reads of the clock.
const MIN_CALLS: usize = 64;

/// Mean seconds of three `Var::fit_differenced(ds, r)` fits, printed as
/// a training row, and the fitted model.
fn time_training(ds: &Dataset, r: usize) -> (Var, f64) {
    let mut acc = Running::new();
    let mut var = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        var = Some(Var::fit_differenced(ds, r, 1e-6).expect("fit"));
        acc.push(t0.elapsed().as_secs_f64());
    }
    println!(
        "{:<28} {:>14.4}",
        format!("VAR({r}) differenced"),
        acc.mean()
    );
    (var.expect("three fits"), acc.mean())
}

/// Checks `f`'s `forecast_into` against `forecast` on the first window,
/// bit for bit, then times it on sliding windows of `commands` (`flat`
/// holds the same rows, row-major). Returns seconds per call and calls.
fn time_inference(f: &dyn Forecaster, commands: &[Vec<f64>], flat: &[f64]) -> (f64, usize) {
    let (r, d) = (f.history_len(), f.dims());
    let (mut scratch, mut out) = (ForecastScratch::new(), vec![0.0; d]);
    let window = |at: usize| HistoryView::contiguous(&flat[at * d..(at + r) * d], d);
    f.forecast_into(&window(0), &mut scratch, &mut out);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let expected = f.forecast(&commands[..r]);
    assert_eq!(bits(&out), bits(&expected), "{}: forecast_into", f.name());

    let windows = commands.len() - r + 1;
    let (mut at, mut calls) = (0, 0);
    let t0 = Instant::now();
    while calls < MIN_CALLS || t0.elapsed() < ROW_BUDGET {
        for _ in 0..MIN_CALLS {
            f.forecast_into(black_box(&window(at)), &mut scratch, &mut out);
            black_box(&mut out);
            at = if at + 1 == windows { 0 } else { at + 1 };
        }
        calls += MIN_CALLS;
    }
    (t0.elapsed().as_secs_f64() / calls as f64, calls)
}

fn main() {
    banner(
        "Table II — training and inference times",
        "paper §VI-D-3, Table II",
    );
    let cycles = foreco_bench::env_knob("FORECO_CYCLES", 100);
    eprintln!("recording {cycles} cycles…");
    let ds = Dataset::record(Skill::Experienced, cycles, OMEGA, 0x7AB2);
    let d = ds.dof();
    println!("# dataset: {} commands on {d} joints", ds.len());

    println!("\n{:<28} {:>14}   (mean of 3 fits)", "training", "[s]");
    let (var5, train5) = time_training(&ds, 5);
    let (var20, _) = time_training(&ds, 20);
    let varma = Varma::fit(&ds, 4, 2, 1e-6).expect("fit");
    let s2s = Seq2SeqForecaster::fit(
        &ds,
        &Seq2SeqTrainConfig {
            r: 5,
            epochs: 1,
            subsample: 512,
            ..Default::default()
        },
    );
    let (ma, holt) = (MovingAverage::new(20, d), Holt::default_teleop(10, d));
    let families: [(&str, &dyn Forecaster); 6] = [
        ("MA(20)", &ma),
        ("VAR(5)", &var5),
        ("VAR(20)", &var20),
        ("Holt(10)", &holt),
        ("VARMA(4,2)", &varma),
        ("seq2seq (200/30)", &s2s),
    ];
    let flat = ds.commands.concat();
    println!(
        "\n{:<28} {:>14} {:>12}   (forecast_into, checked = forecast)",
        "inference", "[ms]", "calls"
    );
    let timed: Vec<(&str, f64)> = families
        .into_iter()
        .map(|(name, f)| {
            let (secs, calls) = time_inference(f, &ds.commands, &flat);
            println!("{name:<28} {:>14.6} {calls:>12}", secs * 1e3);
            (name, secs)
        })
        .collect();
    let infer5 = timed[1].1;
    let slowest = timed
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("rows");

    println!(
        "\n{:<28} {:>14} {:>16}",
        "VAR(5) platform", "training [min]", "inference [ms]"
    );
    println!(
        "{:<28} {:>14.6} {:>16.6}   ← measured",
        "this host",
        train5 / 60.0,
        infer5 * 1e3
    );
    for (name, tr, inf) in [
        ("Raspberry Pi 3 (robot)", "5.99", "1.60"),
        ("NVIDIA Jetson Nano (robot)", "1.31", "0.61"),
        ("Laptop (UE)", "0.36", "0.22"),
        ("Local server (Edge)", "0.23", "0.0001"),
    ] {
        println!("{name:<28} {tr:>14} {inf:>16}   (paper)");
    }
    println!(
        "\nshape checks: slowest inference, {} at {:.4} ms, ≪ Ω = 20 ms → fits the control loop;",
        slowest.0,
        slowest.1 * 1e3
    );
    println!(
        "VAR(5) training/inference ratio ≈ {:.0} (paper spans 10⁵–10⁶ across tiers)",
        train5 / infer5
    );
}
