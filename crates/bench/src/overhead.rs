//! Overhead measurement: the machinery behind Figures 9 and 10.
//!
//! For every workload we execute the uninstrumented baseline and each
//! mechanism in the cycle-model VM and report the overhead ratio. The
//! paper measures wall-clock on an Apple M1; our deterministic cycle model
//! (PA op = 7 ALU ops, the paper's own emulation factor) reproduces the
//! *shape*: STC < STWC < STL, pointer-heavy outliers, near-zero nbench.

use rsti_core::{Mechanism, OptLevel};
use rsti_vm::{Image, Status, Vm};
use rsti_workloads::{Suite, Workload};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Mechanisms in report column order.
pub const MECHS: [Mechanism; 3] = [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl];

/// A workload run that did not exit cleanly — the measurement is
/// meaningless, so the whole sweep reports which benchmark failed and how
/// instead of asserting deep inside the VM loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureError {
    /// Name of the failing benchmark.
    pub workload: String,
    /// How the run ended (a trap, or a non-zero exit).
    pub status: Status,
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload `{}` did not run cleanly: {:?}", self.workload, self.status)
    }
}

impl std::error::Error for MeasureError {}

/// One benchmark's overhead measurements.
///
/// `PartialEq` so the determinism tests can assert that parallel and
/// serial sweeps produce identical rows.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadRow {
    /// Benchmark name.
    pub name: String,
    /// Owning suite.
    pub suite: Suite,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Cycles under `[STWC, STC, STL]`.
    pub cycles: [u64; 3],
    /// Overhead percentages under `[STWC, STC, STL]`.
    pub overhead_pct: [f64; 3],
    /// Instrumented pointer load/store sites under STWC (for the
    /// correlation analysis of §6.3.2).
    pub instrumented_sites: usize,
    /// Dynamic `pac` (sign) operations executed under `[STWC, STC, STL]`.
    /// Taken from the run's own [`rsti_vm::ExecResult`] — a deterministic
    /// per-row value, independent of the global telemetry collector, so
    /// parallel sweeps aggregate exactly the totals serial sweeps do.
    pub pac_signs: [u64; 3],
    /// Dynamic `aut` operations executed under `[STWC, STC, STL]`.
    pub pac_auths: [u64; 3],
}

fn run_measured(img: &Image, workload: &str) -> Result<rsti_vm::ExecResult, MeasureError> {
    let mut vm = Vm::new(img);
    vm.set_fuel(200_000_000);
    let r = vm.run();
    if !matches!(r.status, Status::Exited(0)) {
        return Err(MeasureError { workload: workload.to_string(), status: r.status });
    }
    Ok(r)
}

/// Measures one workload under the baseline and all three mechanisms, at
/// the full (CFG) optimization level.
///
/// Both sides run through the O2-model optimizer (register promotion +
/// redundant-auth elision), mirroring the paper's "compiled with LTO and
/// O2 for fair comparison" methodology (§6.3.1).
///
/// # Errors
/// Returns [`MeasureError`] when any of the four runs traps or exits
/// non-zero.
pub fn measure(w: &Workload) -> Result<OverheadRow, MeasureError> {
    measure_at(w, OptLevel::Cfg)
}

/// [`measure`] at an explicit optimizer level — the knob behind the
/// `opt_compare` ablation (block-local vs CFG rows per mechanism). The
/// baseline side always gets the same level, so each row is a fair
/// comparison at that level.
///
/// # Errors
/// Returns [`MeasureError`] when any of the four runs traps or exits
/// non-zero.
pub fn measure_at(w: &Workload, level: OptLevel) -> Result<OverheadRow, MeasureError> {
    let m = w.proxy_module();
    let base = run_measured(&Image::build(&m, None, level).0, w.name)?.cycles;
    let mut cycles = [0u64; 3];
    let mut pct = [0f64; 3];
    let mut sites = 0;
    let mut pac_signs = [0u64; 3];
    let mut pac_auths = [0u64; 3];
    for (i, &mech) in MECHS.iter().enumerate() {
        let (img, stats) = Image::build(&m, mech, level);
        if let (Mechanism::Stwc, Some(st)) = (mech, stats) {
            sites = st.signs_on_store + st.auths_on_load;
        }
        let r = run_measured(&img, w.name)?;
        cycles[i] = r.cycles;
        pct[i] = (r.cycles as f64 / base as f64 - 1.0) * 100.0;
        pac_signs[i] = r.pac_signs;
        pac_auths[i] = r.pac_auths;
    }
    Ok(OverheadRow {
        name: w.name.to_string(),
        suite: w.suite,
        base_cycles: base,
        cycles,
        overhead_pct: pct,
        instrumented_sites: sites,
        pac_signs,
        pac_auths,
    })
}

/// Measures a whole suite, fanning the workloads out over one scoped
/// thread per available core ([`std::thread::available_parallelism`]).
///
/// Each row is a pure function of its workload (the VM's cycle model is
/// deterministic), so the fan-out cannot change any reported number —
/// results land in per-workload slots and come back in suite order. See
/// the `parallel_suite_matches_serial` test.
///
/// # Errors
/// Returns the first (in suite order) [`MeasureError`] of any failing
/// workload.
pub fn measure_suite(ws: &[Workload]) -> Result<Vec<OverheadRow>, MeasureError> {
    measure_suite_with_threads(ws, std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`measure_suite`] with an explicit worker count (`1` = fully serial,
/// on the calling thread). Exposed so tests can compare serial and
/// parallel sweeps directly, without racing on the environment.
pub fn measure_suite_with_threads(
    ws: &[Workload],
    threads: usize,
) -> Result<Vec<OverheadRow>, MeasureError> {
    let threads = threads.clamp(1, ws.len().max(1));
    if threads == 1 {
        return ws.iter().map(measure).collect();
    }
    // Order-preserving fan-out: workers pull the next workload index from
    // a shared counter and write into that index's slot, so the collected
    // vector is in suite order no matter which worker ran what.
    let slots: Vec<Mutex<Option<Result<OverheadRow, MeasureError>>>> =
        ws.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(w) = ws.get(i) else { break };
                let row = measure(w);
                // Same poison-recovery policy as the serve cache and the
                // telemetry sink: the guarded state is a plain slot write,
                // so a panicked peer cannot have left it half-updated —
                // recover the guard rather than cascading the panic.
                *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(row);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every slot filled")
        })
        .collect()
}

/// Geometric mean of overhead *ratios* reported back as a percentage
/// (the paper's aggregation).
///
/// Entries whose ratio `1 + p/100` is not a positive finite number (NaN
/// percentages, or overheads at or below -100%, whose log is undefined)
/// are skipped rather than poisoning the whole aggregate with NaN.
pub fn geomean_pct(pcts: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0f64, 0u32);
    for p in pcts {
        let ratio = 1.0 + p / 100.0;
        if !(ratio.is_finite() && ratio > 0.0) {
            continue;
        }
        log_sum += ratio.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    ((log_sum / n as f64).exp() - 1.0) * 100.0
}

/// Five-number summary + geomean, for the Figure 10 box plots.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Geometric mean of the ratios, as a percentage.
    pub geomean: f64,
    /// Values beyond 1.5×IQR of the quartiles.
    pub outliers: Vec<f64>,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

/// Computes box-plot statistics for a set of overhead percentages.
/// NaN entries carry no ordering information and are dropped before the
/// sort (which would otherwise panic on them).
pub fn box_stats(values: &[f64]) -> BoxStats {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    let q1 = percentile(&v, 0.25);
    let q3 = percentile(&v, 0.75);
    let iqr = q3 - q1;
    let (lo, hi) = (q1 - 1.5 * iqr, q3 + 1.5 * iqr);
    BoxStats {
        min: v.first().copied().unwrap_or(0.0),
        q1,
        median: percentile(&v, 0.5),
        q3,
        max: v.last().copied().unwrap_or(0.0),
        geomean: geomean_pct(v.iter().copied()),
        outliers: v.iter().copied().filter(|&x| x < lo || x > hi).collect(),
    }
}

/// Pearson correlation coefficient (the §6.3.2 instrumentation-count vs
/// overhead analysis).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        // ratios 1.1 and 1.21 → geomean ratio 1.1537... (sqrt(1.331))
        let g = geomean_pct([10.0, 21.0]);
        assert!((g - ((1.1f64 * 1.21).sqrt() - 1.0) * 100.0).abs() < 1e-9);
        assert_eq!(geomean_pct([]), 0.0);
    }

    #[test]
    fn geomean_skips_degenerate_ratios() {
        // NaN and ratios <= 0 (p <= -100) carry no log; the rest aggregate.
        let clean = geomean_pct([10.0, 21.0]);
        let dirty = geomean_pct([10.0, f64::NAN, -100.0, -250.0, 21.0]);
        assert!((clean - dirty).abs() < 1e-12);
        assert!(dirty.is_finite());
        // All-degenerate input degrades to the empty-input answer.
        assert_eq!(geomean_pct([f64::NAN, -100.0]), 0.0);
    }

    #[test]
    fn box_stats_basics() {
        let s = box_stats(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.outliers, vec![100.0]);
    }

    #[test]
    fn box_stats_tolerates_nan() {
        let s = box_stats(&[1.0, f64::NAN, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert!(s.outliers.iter().all(|o| !o.is_nan()));
        // Degenerate all-NaN input yields the empty-input summary.
        let e = box_stats(&[f64::NAN]);
        assert_eq!((e.min, e.median, e.max), (0.0, 0.0, 0.0));
    }

    #[test]
    fn pearson_on_known_data() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&xs, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &[8.0, 6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_workload_overhead_shape() {
        let w = rsti_workloads::nginx().remove(0);
        let row = measure(&w).expect("nginx proxy runs cleanly");
        // STC <= STWC <= STL
        assert!(row.overhead_pct[1] <= row.overhead_pct[0] + 1e-9, "{row:?}");
        assert!(row.overhead_pct[0] <= row.overhead_pct[2] + 1e-9, "{row:?}");
        assert!(row.overhead_pct[0] > 0.0, "NGINX proxy is pointer-active: {row:?}");
    }

    /// The Fig. 9/10 acceptance property of the parallel harness: fanning
    /// a sweep out over threads changes *nothing* about the reported rows
    /// — names, cycle counts, percentages, site counts, and dynamic check
    /// counts are identical to the serial sweep, element for element.
    #[test]
    fn parallel_suite_matches_serial() {
        let ws: Vec<_> =
            rsti_workloads::nbench().into_iter().chain(rsti_workloads::nginx()).collect();
        let serial = measure_suite_with_threads(&ws, 1).expect("suite runs cleanly");
        let parallel = measure_suite_with_threads(&ws, 4).expect("suite runs cleanly");
        assert_eq!(serial.len(), ws.len());
        assert_eq!(serial, parallel);
        // The aggregated dynamic-check totals — what the report columns
        // sum — are identical too, and non-trivial.
        let totals = |rows: &[OverheadRow]| {
            rows.iter().fold(([0u64; 3], [0u64; 3]), |(mut s, mut a), r| {
                for i in 0..3 {
                    s[i] += r.pac_signs[i];
                    a[i] += r.pac_auths[i];
                }
                (s, a)
            })
        };
        let (s_signs, s_auths) = totals(&serial);
        let (p_signs, p_auths) = totals(&parallel);
        assert_eq!(s_signs, p_signs);
        assert_eq!(s_auths, p_auths);
        assert!(s_signs.iter().all(|&n| n > 0), "{s_signs:?}");
        assert!(s_auths.iter().all(|&n| n > 0), "{s_auths:?}");
    }

    /// The optimizer acceptance property on the loop-heavy mix: for every
    /// mechanism, each level of the ladder executes *strictly* fewer
    /// dynamic auths than the one below it (cfg < block-local, ipo < cfg),
    /// while status and output stay bit-identical across all four levels.
    /// The ipo < cfg leg is the `--opt ipo` acceptance gate.
    #[test]
    fn cfg_strictly_reduces_dynamic_auths_vs_block_local() {
        let ws: Vec<_> =
            rsti_workloads::nbench().into_iter().chain(rsti_workloads::nginx()).collect();
        // auths[level][mech], summed over the suite.
        let mut auths = [[0u64; 3]; 4];
        for w in &ws {
            let m = w.proxy_module();
            for (mi, &mech) in MECHS.iter().enumerate() {
                let mut reference: Option<(Status, Vec<String>)> = None;
                for (li, level) in OptLevel::ALL.iter().enumerate() {
                    let r = run_measured(&Image::build(&m, mech, *level).0, w.name)
                        .unwrap_or_else(|e| panic!("{} {}: {e}", mech.name(), level.label()));
                    match &reference {
                        None => reference = Some((r.status.clone(), r.output.clone())),
                        Some((s, o)) => {
                            assert_eq!(&r.status, s, "{} {}", w.name, level.label());
                            assert_eq!(&r.output, o, "{} {}", w.name, level.label());
                        }
                    }
                    auths[li][mi] += r.pac_auths;
                }
            }
        }
        for (mi, mech) in MECHS.iter().enumerate() {
            assert!(
                auths[3][mi] < auths[2][mi],
                "{}: ipo auths {} not strictly below cfg {}",
                mech.name(),
                auths[3][mi],
                auths[2][mi]
            );
            assert!(
                auths[2][mi] < auths[1][mi],
                "{}: cfg auths {} not strictly below block-local {}",
                mech.name(),
                auths[2][mi],
                auths[1][mi]
            );
            assert!(
                auths[1][mi] <= auths[0][mi],
                "{}: block-local auths {} above unoptimized {}",
                mech.name(),
                auths[1][mi],
                auths[0][mi]
            );
        }
    }

    #[test]
    fn measure_error_reports_workload_and_status() {
        // A program that exits non-zero is a measurement error, not a panic.
        let w = rsti_workloads::Workload {
            name: "exits-badly",
            suite: rsti_workloads::Suite::Nbench,
            source: "int main() { return 3; }".into(),
        };
        let e = measure(&w).expect_err("non-zero exit must fail the measurement");
        assert_eq!(e.workload, "exits-badly");
        assert_eq!(e.status, Status::Exited(3));
    }
}
