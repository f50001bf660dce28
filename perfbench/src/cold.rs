//! `cold-compile`: the whole pipeline on programs no cache has seen.
//!
//! A seeded pool of `generate_source` programs, mixed between the default
//! `AstGenConfig` and larger shapes. Each sample is one (program,
//! mechanism, level in {cfg, ipo}) built from source: `compile`,
//! `instrument`, `optimize_program_at`, `Image::precompile`. The sample's
//! latency covers exactly those calls; one short compiled run afterwards
//! is checked against the uninstrumented program's run.
//!
//! An operation is a sample.

use crate::layers::{self, DynPac, Overheads, LEVELS, MECHS};
use crate::security;
use crate::stats::{beyond, quantile, windowed};
use crate::trace::{median_ms, total_ms, Tracer};
use crate::{timed_setup, trace_path, Args, Metrics, Report};
use rsti_vm::{ExecBackend, ExecResult, Image};
use rsti_workloads::AstGenConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Programs in the pool; each yields one job per level and mechanism.
const POOL: u64 = 256;
/// Distinct (program, mechanism, level) jobs in one pass over the pool.
const JOBS: usize = POOL as usize * LEVELS.len() * MECHS.len();
/// Every run makes at least one pass over the pool, which `overhead_pct`
/// covers (and p99 then has more than ten samples beyond it).
const MIN_SAMPLES: usize = JOBS;

/// A program shape between the default and about six times its source
/// size. Every dimension is drawn independently, so sizes (and latencies)
/// spread smoothly instead of clustering in classes whose boundary a
/// percentile could straddle.
fn shape(rng: &mut rsti_rng::Rng64) -> AstGenConfig {
    let d = AstGenConfig::default();
    let mut up = |max: u64| rng.gen_range(0, max + 1) as u32;
    AstGenConfig {
        structs: d.structs + up(3),
        hooks: d.hooks + up(3),
        funcs: d.funcs + up(20),
        stmts_per_func: d.stmts_per_func + up(6),
        ..d
    }
}

struct Program {
    src: String,
    /// The uninstrumented run optimized at each level (`optimize_module`,
    /// as Fig. 9 does), filled on first use.
    baseline: [OnceLock<ExecResult>; 2],
}

fn setup(seed: u64) -> Vec<Program> {
    let mut rng = rsti_rng::Rng64::seed_from_u64(seed ^ 0x636f_6c64);
    (0..POOL)
        .map(|j| {
            let cfg = shape(&mut rng);
            let pseed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(j);
            Program {
                src: rsti_workloads::generate_source(pseed, cfg),
                baseline: Default::default(),
            }
        })
        .collect()
}

/// Level and mechanism indices of job `i`.
fn combo(i: usize) -> (usize, usize) {
    let c = i % (LEVELS.len() * MECHS.len());
    (c / MECHS.len(), c % MECHS.len())
}

/// One sample: its latency in ms (infinite when the compiled run's status
/// or output differs from the baseline's, so a wrong output counts against
/// every latency limit) and, when it matched, its run and the baseline's.
struct Sample<'a> {
    lat_ms: f64,
    runs: Option<(ExecResult, &'a ExecResult)>,
}

/// Runs job `i`.
fn sample<'a>(pool: &'a [Program], i: usize, t: &mut Tracer) -> Sample<'a> {
    let prog = &pool[(i % JOBS) / (LEVELS.len() * MECHS.len())];
    let (li, mi) = combo(i);
    let src = prog.src.as_str();
    let t0 = Instant::now();
    let root = t.open("cold.sample");
    if t.on() {
        // A separate parse splits frontend time into parse and lowering.
        let _ = t.time("frontend.parse", || rsti_frontend::parse(src));
    }
    let built = t
        .time("frontend.compile", || rsti_frontend::compile(src, "cold"))
        .map(|m| {
            let mut p = t.time("core.instrument", || rsti_core::instrument(&m, MECHS[mi]));
            t.time("core.optimize", || {
                rsti_core::optimize_program_at(&mut p, LEVELS[li])
            });
            let img = Image::from_instrumented_owned(p).with_exec(ExecBackend::Compiled);
            t.time("vm.translate", || img.precompile());
            img
        });
    t.close(root);
    let latency = t0.elapsed();
    let Ok(img) = built else {
        return Sample {
            lat_ms: f64::INFINITY,
            runs: None,
        };
    };
    let base = prog.baseline[li].get_or_init(|| {
        let mut m = rsti_frontend::compile(src, "cold").expect("compiled just above");
        rsti_core::optimize_module(&mut m, LEVELS[li]);
        layers::run_image(&Image::baseline_owned(m).with_exec(ExecBackend::Compiled))
    });
    let got = t.time("vm.run", || layers::run_image(&img));
    if got.status != base.status || got.output != base.output {
        return Sample {
            lat_ms: f64::INFINITY,
            runs: None,
        };
    }
    Sample {
        lat_ms: latency.as_secs_f64() * 1e3,
        runs: Some((got, base)),
    }
}

/// What a pass over jobs measured, beyond latencies.
#[derive(Default)]
struct Obs {
    pct: Overheads,
    dyn_pac: DynPac,
    insts: u64,
    src_bytes: u64,
    /// Samples that built an instrumented image.
    builds: u64,
}

impl Obs {
    fn add(&mut self, i: usize, pool: &[Program], s: &Sample) {
        let (li, mi) = combo(i);
        self.src_bytes += pool[(i % JOBS) / (LEVELS.len() * MECHS.len())].src.len() as u64;
        if let Some((r, base)) = &s.runs {
            self.pct.push(li, mi, r.cycles, base.cycles);
            self.dyn_pac.add(li, mi, r.pac_auths, r.pac_signs);
            self.insts += r.insts;
            self.builds += 1;
        }
    }
}

/// Runs jobs 0, 1, ... `jobs - 1` in order on this thread.
fn session(pool: &[Program], jobs: usize, t: &mut Tracer) -> (Vec<f64>, Obs) {
    let mut obs = Obs::default();
    let lat = (0..jobs)
        .map(|i| {
            let s = sample(pool, i, t);
            obs.add(i, pool, &s);
            s.lat_ms
        })
        .collect();
    (lat, obs)
}

/// Compile streams running side by side, one per core: like the Fig. 9
/// sweep, the run then samples both cores, whose speeds drift apart on a
/// shared machine, instead of whichever one a single thread landed on.
const THREADS: usize = 2;

/// What [`parallel_session`] measured.
struct Parallel {
    /// Latency of every sample, ms.
    lat_ms: Vec<f64>,
    /// When each sample completed, seconds into the run.
    done_s: Vec<f64>,
    elapsed: Duration,
    /// The first pass over the pool (jobs `0..JOBS`), in job order.
    first: Obs,
}

/// Runs jobs on [`THREADS`] threads until at least [`MIN_SAMPLES`] ran
/// and `window` has passed.
fn parallel_session(pool: &[Program], window: Duration) -> Parallel {
    let next = AtomicUsize::new(0);
    let first: Vec<Mutex<Option<Sample>>> = (0..JOBS).map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    let (lat_ms, done_s) = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                sc.spawn(|| {
                    let (mut t, mut out) = (Tracer::new(false), Vec::new());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= MIN_SAMPLES && t0.elapsed() >= window {
                            return out;
                        }
                        let s = sample(pool, i, &mut t);
                        out.push((s.lat_ms, t0.elapsed().as_secs_f64()));
                        if i < JOBS {
                            *first[i].lock().expect("no panics while held") = Some(s);
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("compile thread"))
            .unzip()
    });
    let elapsed = t0.elapsed();
    let mut obs = Obs::default();
    for (i, slot) in first.into_iter().enumerate() {
        let s = slot
            .into_inner()
            .expect("no panics while held")
            .expect("every job of the first pass ran");
        obs.add(i, pool, &s);
    }
    Parallel {
        lat_ms,
        done_s,
        elapsed,
        first: obs,
    }
}

/// Sub-windows for `ops_per_s`, as in `serve-zipf`.
const SUBWINDOWS: usize = 6;

pub fn run(args: &Args) -> Report {
    let (pool, setup_s) = timed_setup(|| setup(args.seed));
    if args.trace {
        return traced(args, &pool);
    }
    let p = parallel_session(&pool, args.window);
    let lat = &p.lat_ms;
    let failed = lat.iter().filter(|l| l.is_infinite()).count() as u64;
    let (cells, cells_attempted) = security::check();
    eprintln!(
        "cold-compile: {} samples ({} beyond p99)",
        lat.len(),
        beyond(lat.len(), 0.99)
    );
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("op_p50_ms", quantile(lat, 0.50), "ms");
    m.put("op_tail_ms", quantile(lat, 0.99), "ms");
    m.put(
        "ops_per_s",
        windowed(
            lat,
            &p.done_s,
            p.elapsed.as_secs_f64(),
            SUBWINDOWS,
            |l, w| l.iter().filter(|x| x.is_finite()).count() as f64 / w,
        ),
        "1/s",
    );
    p.first.pct.put(&mut m);
    cells.put_e2e(&mut m);
    Report {
        correct: failed == 0 && p.first.pct.complete(),
        attempted: lat.len() as u64 + cells_attempted,
        failed,
        metrics: m,
    }
}

/// The traced run: one untraced pass over every (program, mechanism,
/// level) of the pool, then the same pass with spans and telemetry on. A
/// fixed pass (not a time window) keeps the per-layer counts exact. The
/// attribution profile of the pool at `cfg`, the PA-unit
/// micro-measurement and the security check follow, outside both passes.
fn traced(args: &Args, pool: &[Program]) -> Report {
    let mut m = Metrics::default();
    let (plain, _) = session(pool, JOBS, &mut Tracer::new(false));
    let tel = rsti_telemetry::global();
    tel.reset();
    tel.enable();
    let mut t = Tracer::new(true);
    let (lat, obs) = session(pool, JOBS, &mut t);
    tel.disable();
    layers::put_telemetry(&mut m, obs.builds);

    let mods: Vec<_> = pool
        .iter()
        .filter_map(|p| rsti_frontend::compile(&p.src, "cold").ok())
        .collect();
    let prof = layers::profile(&mods, false, &mut Tracer::new(false));
    let pac_ns = t.time("pac.sign_auth", || layers::pac_pair_ns(args.seed));
    let (cells, cells_attempted) = security::check();
    if let Err(e) = t.write_jsonl(&trace_path(&args.workload, args.seed)) {
        eprintln!("cold-compile: could not write spans: {e}");
    }
    let st = t.self_times();
    let spans = |name: &str| st.get(name).map_or(&[][..], Vec::as_slice);
    layers::put_frontend(&mut m, &st, obs.src_bytes);
    m.put(
        "core.instrument_ms",
        median_ms(spans("core.instrument")),
        "ms",
    );
    m.put("core.optimize_ms", median_ms(spans("core.optimize")), "ms");
    m.put("vm.translate_ms", median_ms(spans("vm.translate")), "ms");
    m.put("vm.run_ms", median_ms(spans("vm.run")), "ms");
    m.put(
        "vm.minsts_per_s",
        obs.insts as f64 / total_ms(spans("vm.run")) / 1e3,
        "Minst/s",
    );
    obs.dyn_pac.put(&mut m);
    prof.put(&mut m);
    m.put("pac.sign_auth_ns", pac_ns, "ns");
    cells.put_layers(&mut m);
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    m.put(
        "telemetry.trace_overhead_pct",
        (sum(&lat) / sum(&plain) - 1.0) * 100.0,
        "%",
    );
    let failed = [&plain, &lat]
        .iter()
        .map(|v| v.iter().filter(|l| l.is_infinite()).count() as u64)
        .sum::<u64>()
        + prof.failed;
    Report {
        correct: failed == 0,
        attempted: (plain.len() + lat.len()) as u64 + prof.attempted + cells_attempted,
        failed,
        metrics: m,
    }
}
