//! FoReCo service benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//! `replay_light_loss`, `jammed_mixed_fleet`, `gateway_50hz`,
//! `checkpoint_roundtrip`. With `--trace 0` the run measures the
//! end-to-end metrics untraced; with `--trace 1` it times each layer's
//! public calls on the workload's own inputs, records spans, prints
//! per-layer self-times and the reconciliation against the end-to-end
//! numbers, and reports the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any divergence in a
//! correctness check exits non-zero.

mod inputs;
mod layers;
mod tracer;
mod workloads;

use foreco_serve::SessionReport;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "replay_light_loss",
    "jammed_mixed_fleet",
    "gateway_50hz",
    "checkpoint_roundtrip",
];

/// Fleet sizes and repetition counts.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Sessions per closed batch.
    pub batch: u64,
    /// Distinct batch spec sets the closed-batch fleet rotates through.
    pub sets: u64,
    /// Commands in a replayed trace (50 per second of teleoperation).
    pub trace_ticks: usize,
    /// Active 50 Hz operators on the gateway.
    pub operators: u64,
    /// Attached but silent gateway sessions.
    pub silent: u64,
    /// Real-time sessions in the checkpoint fleet.
    pub ckpt_sessions: u64,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Set-ups per run of the workloads whose set-up starts a live
    /// fleet: gateway (each attaches its operators over TCP, which takes
    /// seconds) and checkpoint (an earlier set-up's real-time fleet
    /// winds down in the background).
    pub live_setups: usize,
    /// Sessions rerun standalone by the correctness checks.
    pub samples: usize,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            batch: 64,
            sets: 32,
            trace_ticks: 600,
            operators: 64,
            silent: 960,
            ckpt_sessions: 256,
            setups: 25,
            live_setups: 3,
            samples: 8,
        }
    }

    /// The self-test's scale: every path runs, in well under a second.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            batch: 4,
            sets: 2,
            trace_ticks: 300,
            operators: 4,
            silent: 4,
            ckpt_sessions: 6,
            setups: 1,
            live_setups: 1,
            samples: 2,
        }
    }
}

/// The bit-level identity of a session's outcome.
pub type Digest = (u64, usize, u64, u64);

pub fn report_digest(r: &SessionReport) -> Digest {
    (
        r.ticks,
        r.misses,
        r.rmse_mm.to_bits(),
        r.max_deviation_mm.to_bits(),
    )
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    /// Failures by kind (counted against `attempted`).
    pub failures: Vec<(&'static str, u64)>,
    /// Correctness divergences; any one fails the run.
    pub divergences: Vec<String>,
    pub notes: Vec<String>,
    /// The reports the RMSE figures came from (the self-test corrupts
    /// one to prove the checks bite).
    pub correct_reports: Vec<SessionReport>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fail(&mut self, kind: &'static str, count: u64) {
        self.failures.push((kind, count));
    }

    pub fn failed(&self) -> u64 {
        self.failures.iter().map(|(_, n)| n).sum()
    }

    pub fn diverge(&mut self, what: String) {
        self.divergences.push(what);
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    /// Compares a served report with its standalone rerun bit for bit.
    pub fn check_report(&mut self, id: u64, served: &Digest, rerun: &SessionReport) {
        if *served != report_digest(rerun) {
            self.diverge(format!(
                "session {id}: served {served:?} != standalone {:?}",
                report_digest(rerun)
            ));
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (NaN if empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`
/// (clock ticks at the kernel's fixed 100 Hz user-visible rate).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Runs one untraced workload.
pub fn run_workload(name: &str, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let mut outcome = Outcome::default();
    match name {
        "replay_light_loss" => {
            workloads::closed_batch(seed, seconds, scale, workloads::replay_fleet, &mut outcome)
        }
        "jammed_mixed_fleet" => {
            workloads::closed_batch(seed, seconds, scale, workloads::jammed_fleet, &mut outcome)
        }
        "gateway_50hz" => workloads::gateway(seed, seconds, scale, &mut outcome),
        "checkpoint_roundtrip" => workloads::checkpoint(seed, seconds, scale, &mut outcome),
        other => panic!("unknown workload {other:?}"),
    }
    outcome
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// Prints the human-readable summary and the final JSON line.
fn print_outcome(workload: &str, seed: u64, outcome: &Outcome) {
    println!("workload {workload} seed {seed}");
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in &outcome.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = outcome.failed();
    println!(
        "  error_rate = failed/attempted = {failed}/{} = {:.6}",
        outcome.attempted,
        failed as f64 / outcome.attempted.max(1) as f64
    );
    for (kind, n) in &outcome.failures {
        println!("    {kind}: {n}");
    }
    for d in &outcome.divergences {
        println!("  DIVERGENCE: {d}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.divergences.is_empty(),
        outcome.attempted.max(1),
        failed,
        metrics.join(", ")
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: foreco-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let scale = Scale::full();
    let mut outcome = if trace {
        layers::run(&workload, seed, seconds, &scale)
    } else {
        run_workload(&workload, seed, seconds, &scale)
    };
    if !trace {
        outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    print_outcome(&workload, seed, &outcome);
    if !outcome.divergences.is_empty() {
        std::process::exit(1);
    }
}

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("rmse_p50_mm", "mm"),
    ("rmse_mean_mm", "mm"),
    ("slot_miss_fraction", "fraction"),
    ("op_p1_us", "us"),
    ("peak_rss_mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares under
    /// `section`, sorted.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let body = &json[json
            .find(&format!("\"{section}\""))
            .expect("section present")..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("field closes")].to_string()
        };
        let mut out: Vec<(String, String)> = body
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect();
        out.sort();
        out
    }

    /// `(name, unit)` of every printed metric, sorted; each name once.
    fn printed(outcome: &Outcome) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = outcome
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                (m.name.clone(), m.unit.to_string())
            })
            .collect();
        out.sort();
        let count = out.len();
        out.dedup_by(|a, b| a.0 == b.0);
        assert_eq!(out.len(), count, "a metric printed twice");
        out
    }

    #[test]
    fn every_workload_prints_every_metric_once_and_checks_out() {
        let e2e = declared("end_to_end");
        let per_layer = declared("per_layer");
        for workload in WORKLOADS {
            let mut outcome = run_workload(workload, 5, 0.3, &Scale::tiny());
            outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
            assert!(
                outcome.divergences.is_empty(),
                "{workload}: {:?}",
                outcome.divergences
            );
            assert_eq!(outcome.failed(), 0, "{workload}");
            assert_eq!(printed(&outcome), e2e, "{workload} end-to-end metrics");
            let traced = layers::run(workload, 5, 0.05, &Scale::tiny());
            assert_eq!(printed(&traced), per_layer, "{workload} per-layer metrics");
        }
    }

    #[test]
    fn correctness_check_catches_a_flipped_rmse_bit() {
        let scale = Scale::tiny();
        let outcome = run_workload("replay_light_loss", 7, 0.1, &scale);
        assert!(outcome.divergences.is_empty());
        let served = outcome.correct_reports[0].clone();
        let fleet = workloads::replay_fleet(7, &scale);
        let spec = fleet
            .sets
            .iter()
            .flatten()
            .find(|s| s.id == served.id)
            .expect("spec");
        let rerun = || workloads::run_out(foreco_serve::Session::open(spec, &fleet.models.model));

        let mut clean = Outcome::default();
        clean.check_report(served.id, &report_digest(&served), &rerun());
        assert!(clean.divergences.is_empty(), "an honest report must pass");

        let mut flipped = served.clone();
        flipped.rmse_mm = f64::from_bits(flipped.rmse_mm.to_bits() ^ 1);
        let mut caught = Outcome::default();
        caught.check_report(served.id, &report_digest(&flipped), &rerun());
        assert_eq!(
            caught.divergences.len(),
            1,
            "one flipped RMSE bit must diverge"
        );
    }
}
