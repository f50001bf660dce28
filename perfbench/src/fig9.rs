//! `fig9-sweep`: the paper's overhead result and its security check.
//!
//! Every `rsti_workloads::all_workloads()` proxy runs as baseline plus
//! STWC/STC/STL at `cfg` and `ipo` on the interpreter, with the recipe of
//! `rsti_bench::overhead::measure_at`: `inline_leaf_functions(96)`, then
//! `instrument`, then `optimize_module`, then `Vm::run`. The Table-1 attack
//! cells (12 scenarios x 3 mechanisms x {cfg, ipo}) run on optimized
//! images through the public attacker API. The frontend runs in set-up, so
//! frontend work does not show in the timed operations.
//!
//! An operation is a group: one proxy at one level (baseline plus three
//! mechanisms) or one victim at one level (three cells).

use crate::layers::{self, DynPac, Overheads, LEVELS, MECHS};
use crate::security::{self, Cells, Victims};
use crate::stats::quantile;
use crate::trace::{median_ms, total_ms, Tracer};
use crate::{timed_setup, trace_path, Args, Metrics, Report};
use rsti_core::Mechanism;
use rsti_ir::Module;
use rsti_vm::{Image, Status};
use std::time::{Duration, Instant};

struct Setup {
    /// Frontend output of every proxy, in suite order.
    proxies: Vec<Module>,
    victims: Victims,
}

fn setup() -> Setup {
    let proxies = rsti_workloads::all_workloads()
        .iter()
        .map(|w| w.module())
        .collect();
    Setup {
        proxies,
        victims: security::victims(),
    }
}

/// The unit of timing: one proxy or one victim at one level.
#[derive(Clone, Copy)]
enum Group {
    Proxy(usize, usize),
    Attack(usize, usize),
}

fn groups(s: &Setup) -> Vec<Group> {
    let mut g = Vec::new();
    for li in 0..LEVELS.len() {
        g.extend((0..s.proxies.len()).map(|p| Group::Proxy(p, li)));
    }
    for li in 0..LEVELS.len() {
        g.extend((0..s.victims.len()).map(|v| Group::Attack(v, li)));
    }
    g
}

/// Deterministic results of one pass; every complete pass must repeat
/// the first bit for bit.
#[derive(Debug, Default, Clone, PartialEq)]
struct Det {
    /// Overhead % per level, per mechanism, per proxy (suite order).
    pct: Overheads,
    /// STWC instrumented load/store sites per proxy (the §6.3.2 x-axis).
    sites: Vec<f64>,
    dyn_pac: DynPac,
    cells: Cells,
}

#[derive(Default)]
struct Pass {
    det: Det,
    /// Instructions executed by the proxy runs.
    insts: u64,
    /// Instrumented builds (`instrument` calls).
    builds: u64,
    attempted: u64,
    failed: u64,
}

impl Pass {
    /// Appends `o`, a pass over later groups: the result equals one pass
    /// that ran `self`'s groups and then `o`'s.
    fn merge(&mut self, o: Pass) {
        let (d, od) = (&mut self.det, o.det);
        d.pct.extend(od.pct);
        d.sites.extend(od.sites);
        d.dyn_pac.merge(&od.dyn_pac);
        d.cells.add(&od.cells);
        self.insts += o.insts;
        self.builds += o.builds;
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

fn run_group(s: &Setup, g: Group, t: &mut Tracer, p: &mut Pass) {
    match g {
        Group::Proxy(pi, li) => proxy_group(&s.proxies[pi], li, t, p),
        Group::Attack(vi, li) => {
            let (scenario, module) = &s.victims[vi];
            p.det
                .cells
                .add(&security::cells(scenario, module.as_ref(), li, t));
            p.attempted += MECHS.len() as u64;
            p.builds += if module.is_some() {
                MECHS.len() as u64
            } else {
                0
            };
        }
    }
}

fn proxy_group(m0: &Module, li: usize, t: &mut Tracer, p: &mut Pass) {
    let level = LEVELS[li];
    let m = t.time("core.inline", || {
        let mut m = m0.clone();
        rsti_core::inline_leaf_functions(&mut m, 96);
        m
    });
    let mut mb = m.clone();
    t.time("core.optimize", || {
        rsti_core::optimize_module(&mut mb, level)
    });
    let base_img = Image::baseline_owned(std::mem::take(&mut mb));
    let base = t.time("vm.run", || layers::run_image(&base_img));
    p.attempted += 1;
    p.insts += base.insts;
    let base_ok = matches!(base.status, Status::Exited(0));
    if !base_ok {
        p.failed += 1;
    }
    for (mi, mech) in MECHS.iter().enumerate() {
        let mut prog = t.time("core.instrument", || rsti_core::instrument(&m, *mech));
        p.builds += 1;
        // `optimize_program_at` is `optimize_module` on the program's
        // module plus the telemetry counters.
        t.time("core.optimize", || {
            rsti_core::optimize_program_at(&mut prog, level)
        });
        if li == 0 && *mech == Mechanism::Stwc {
            p.det
                .sites
                .push((prog.stats.signs_on_store + prog.stats.auths_on_load) as f64);
        }
        let img = Image::from_instrumented_owned(prog);
        let r = t.time("vm.run", || layers::run_image(&img));
        p.attempted += 1;
        p.insts += r.insts;
        // The output oracle: an instrumented run must end exactly as its
        // baseline did, with the same output.
        if !base_ok || r.status != base.status || r.output != base.output {
            p.failed += 1;
            continue;
        }
        p.det.pct.push(li, mi, r.cycles, base.cycles);
        p.det.dyn_pac.add(li, mi, r.pac_auths, r.pac_signs);
    }
}

/// One full pass over every group; returns the pass and its wall time.
fn full_pass(s: &Setup, gs: &[Group], t: &mut Tracer) -> (Pass, Duration) {
    let mut p = Pass::default();
    let t0 = Instant::now();
    for &g in gs {
        let id = t.open("fig9.group");
        run_group(s, g, t, &mut p);
        t.close(id);
    }
    (p, t0.elapsed())
}

/// Worker threads of the untraced run (the machine's two cores).
const THREADS: usize = 2;

/// What [`repeat_groups`] measured.
struct Repeated {
    /// The first run of every group, merged in group order: one full pass.
    first: Pass,
    /// Seconds per run, per group.
    samples: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// Every repetition of a group reproduced its first run's results.
    deterministic: bool,
}

/// Runs the groups round-robin on [`THREADS`] threads until every group
/// has run once and `window` has passed, timing every run.
///
/// A group's latency is its fastest run. On a shared machine the speed of
/// a core flips between states for seconds at a time; noise only ever
/// adds time, and with several runs of each group spread over the window
/// (and over both cores) the minimum is the steadiest estimate of its
/// cost.
fn repeat_groups(s: &Setup, gs: &[Group], window: Duration) -> Repeated {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let n = gs.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Pass>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let samples: Vec<Mutex<Vec<f64>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let totals = Mutex::new((0u64, 0u64, true));
    let t0 = Instant::now();
    std::thread::scope(|sc| {
        for _ in 0..THREADS {
            sc.spawn(|| {
                let mut off = Tracer::new(false);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n && t0.elapsed() >= window {
                        break;
                    }
                    let gi = i % n;
                    let mut p = Pass::default();
                    let tg = Instant::now();
                    run_group(s, gs[gi], &mut off, &mut p);
                    let dt = tg.elapsed().as_secs_f64();
                    samples[gi].lock().expect("no panics while held").push(dt);
                    let mut tot = totals.lock().expect("no panics while held");
                    tot.0 += p.attempted;
                    tot.1 += p.failed;
                    let mut slot = slots[gi].lock().expect("no panics while held");
                    match &*slot {
                        None => *slot = Some(p),
                        Some(f) => tot.2 &= f.det == p.det,
                    }
                }
            });
        }
    });
    let mut first = Pass::default();
    for slot in slots {
        first.merge(
            slot.into_inner()
                .expect("no panics while held")
                .expect("every group ran once"),
        );
    }
    let (attempted, failed, deterministic) = totals.into_inner().expect("no panics while held");
    Repeated {
        first,
        samples: samples
            .into_iter()
            .map(|m| m.into_inner().expect("no panics while held"))
            .collect(),
        attempted,
        failed,
        deterministic,
    }
}

pub fn run(args: &Args) -> Report {
    let (s, setup_s) = timed_setup(setup);
    let gs = groups(&s);
    if args.trace {
        return traced(args, &s, &gs);
    }

    let r = repeat_groups(&s, &gs, args.window);
    let det = r.first.det;
    let (attempted, failed, deterministic) = (r.attempted, r.failed, r.deterministic);
    let fastest_ms: Vec<f64> = r
        .samples
        .iter()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min) * 1e3)
        .collect();
    let sweep_s = fastest_ms.iter().sum::<f64>() / 1e3;
    let reps = r.samples.iter().map(Vec::len).sum::<usize>() as f64 / gs.len() as f64;
    eprintln!(
        "fig9-sweep: {reps:.2} timings per group over {} groups, sweep {sweep_s:.3}s",
        gs.len()
    );

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("op_p50_ms", quantile(&fastest_ms, 0.50), "ms");
    // p90: the highest percentile of 134 groups with ten groups beyond it.
    m.put("op_tail_ms", quantile(&fastest_ms, 0.90), "ms");
    m.put("ops_per_s", gs.len() as f64 / sweep_s, "1/s");
    det.pct.put(&mut m);
    det.cells.put_e2e(&mut m);
    let complete = det
        .pct
        .0
        .iter()
        .flatten()
        .all(|v| v.len() == s.proxies.len());
    let mut correct = failed == 0 && deterministic && complete;
    if !deterministic {
        eprintln!("fig9-sweep: a later pass disagreed with the first on a deterministic result");
    }
    if args.cross_check {
        correct &= cross_check(&det);
    }
    Report {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

/// `overhead_pct.*.cfg` and the Pearson coefficient must equal what the
/// repository's own Fig. 9 harness computes, exactly.
fn cross_check(det: &Det) -> bool {
    let fig9 = match rsti_bench::Fig9::measure() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cross-check: Fig9::measure failed: {e}");
            return false;
        }
    };
    let rows: Vec<rsti_bench::OverheadRow> = fig9.all_rows().into_iter().cloned().collect();
    let theirs = rsti_bench::Fig9::geomeans(&rows);
    let cfg = &det.pct.0[0];
    let ours = cfg.clone().map(rsti_bench::geomean_pct);
    let xs: Vec<f64> = rows.iter().map(|r| r.instrumented_sites as f64).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.overhead_pct[0]).collect();
    let (p_theirs, p_ours) = (
        rsti_bench::pearson(&xs, &ys),
        rsti_bench::pearson(&det.sites, &cfg[0]),
    );
    let ok = theirs == ours && p_theirs == p_ours;
    eprintln!(
        "cross-check vs Fig9::measure(): geomean-all cfg ours {ours:?} theirs {theirs:?}, \
         pearson ours {p_ours} theirs {p_theirs}: {}",
        if ok { "exact match" } else { "MISMATCH" }
    );
    ok
}

/// The traced run: one untraced pass, then the same pass with spans and
/// the telemetry collector on; then, outside both timings, the frontend
/// over the proxy and victim sources, the attribution profile of every
/// proxy at `cfg` and the PA-unit micro-measurement.
fn traced(args: &Args, s: &Setup, gs: &[Group]) -> Report {
    let mut m = Metrics::default();
    let (plain, plain_t) = full_pass(s, gs, &mut Tracer::new(false));
    let tel = rsti_telemetry::global();
    tel.reset();
    tel.enable();
    let mut t = Tracer::new(true);
    let (p, traced_t) = full_pass(s, gs, &mut t);
    tel.disable();
    layers::put_telemetry(&mut m, p.builds);

    let proxies = rsti_workloads::all_workloads();
    let sources: Vec<&str> = proxies
        .iter()
        .map(|w| w.source.as_str())
        .chain(s.victims.iter().map(|(v, _)| v.source))
        .collect();
    let (_, src_bytes) = layers::frontend_pass(&mut t, &sources);
    let prof = layers::profile(&s.proxies, true, &mut t);
    let pac_ns = t.time("pac.sign_auth", || layers::pac_pair_ns(args.seed));
    if let Err(e) = t.write_jsonl(&trace_path(&args.workload, args.seed)) {
        eprintln!("fig9-sweep: could not write spans: {e}");
    }
    let st = t.self_times();
    let spans = |name: &str| st.get(name).map_or(&[][..], Vec::as_slice);

    layers::put_frontend(&mut m, &st, src_bytes);
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
        p.insts as f64 / total_ms(spans("vm.run")) / 1e3,
        "Minst/s",
    );
    p.det.dyn_pac.put(&mut m);
    prof.put(&mut m);
    m.put("pac.sign_auth_ns", pac_ns, "ns");
    p.det.cells.put_layers(&mut m);
    m.put(
        "telemetry.trace_overhead_pct",
        (traced_t.as_secs_f64() / plain_t.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
    let failed = plain.failed + p.failed + prof.failed;
    Report {
        correct: failed == 0 && plain.det == p.det,
        attempted: plain.attempted + p.attempted + prof.attempted,
        failed,
        metrics: m,
    }
}
