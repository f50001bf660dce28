//! The RSTI benchmark: one binary, three workloads, one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig9-sweep|serve-zipf|cold-compile> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every layer is measured from outside, by timing calls into the public
//! functions of the repository's crates. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the workload once untraced and once traced
//! (spans recorded by this benchmark plus the `rsti_telemetry` collector)
//! and prints the per-layer metrics. Every workload prints every metric
//! `BENCHMARK.json` names for its mode, each over its own programs and
//! operations. See `perfbench/NOTES.md`.

mod cold;
mod fig9;
mod layers;
mod security;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: rsti-perfbench --workload <fig9-sweep|serve-zipf|cold-compile> \
                     --seed <n> --seconds <s> --trace <0|1> [--cross-check]";

/// Each workload builds its set-up state at least this many times, and
/// until the builds took [`SETUP_MIN_TOTAL`] together; `setup_s` is the
/// median build time, so a slow repetition does not move it. The builds
/// run one at a time, so only one set-up state is alive at once and
/// `peak_rss_mb` does not depend on how two builds overlapped; three
/// seconds span more than one of the multi-second speed states a shared
/// core passes through.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(3);

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// fig9-sweep only: also run `rsti_bench::Fig9::measure()` and require
    /// the `cfg` geomeans and the Pearson coefficient to match exactly.
    pub cross_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cross_check = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--cross-check" {
            cross_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        cross_check,
    })
}

/// Named metrics with units, printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// What a workload hands back to `main`.
pub struct Report {
    /// Every output matched its oracle and every metric is finite.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output differed from the oracle (or that failed).
    pub failed: u64,
    /// Metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Metrics,
}

/// Times repeated builds of a workload's set-up state; returns the last
/// one and the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        let state = std::hint::black_box(build());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPS && t0.elapsed() >= SETUP_MIN_TOTAL {
            return (state, stats::median(&times));
        }
    }
}

/// Where the traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// The metrics `BENCHMARK.json` names for a mode: `end_to_end` for the
/// untraced run, `per_layer` for the traced one; (name, unit) pairs.
fn manifest_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    use rsti_serve::proto::{parse_json, Json};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = parse_json(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(entries)) = j.get(key) else {
        return Err(format!("{path}: no {key} list"));
    };
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{path}: {key} entry without name and unit"))
        })
        .collect()
}

/// Whether `m` holds exactly the metrics the manifest names, in their
/// units; prints every difference.
fn matches_manifest(m: &Metrics, trace: bool) -> bool {
    let want = match manifest_metrics(trace) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("rsti-perfbench: {e}");
            return false;
        }
    };
    let mut ok = want.len() == m.0.len();
    for (name, unit) in &want {
        match m.0.get(name) {
            Some((_, u)) if u == unit => {}
            Some((_, u)) => {
                eprintln!("rsti-perfbench: metric {name} in {u}, manifest says {unit}");
                ok = false;
            }
            None => {
                eprintln!("rsti-perfbench: metric {name} missing");
                ok = false;
            }
        }
    }
    for name in m.0.keys() {
        if !want.iter().any(|(n, _)| n == name) {
            eprintln!("rsti-perfbench: metric {name} is not in the manifest");
            ok = false;
        }
    }
    ok
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .0
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsti-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "fig9-sweep" => fig9::run(&args),
        "serve-zipf" => serve::run(&args),
        "cold-compile" => cold::run(&args),
        other => {
            eprintln!("rsti-perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => report.metrics.put("peak_rss_mb", mb, "MB"),
            None => report.correct = false,
        }
    }
    if !matches_manifest(&report.metrics, args.trace) {
        report.correct = false;
    }
    // A non-finite value cannot be printed as JSON: report it as incorrect.
    for (name, (v, _)) in report.metrics.0.iter_mut() {
        if !v.is_finite() {
            eprintln!("rsti-perfbench: metric {name} is not finite ({v})");
            *v = -1.0;
            report.correct = false;
        }
    }
    println!("{}", json_line(&report));
}
