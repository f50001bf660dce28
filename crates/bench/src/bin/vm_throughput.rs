//! VM throughput tracker: measures instructions/second and cycle-model
//! totals over a fixed workload mix, for both accounting modes, and
//! records them to `BENCH_vm.json`, so the repo carries a machine-readable
//! perf trajectory across PRs.
//!
//! The mix is the nbench + NGINX proxies — the suites the Fig. 9/10
//! pipeline sweeps 4-5× per workload — executed both uninstrumented and
//! under RSTI-STWC. Cycle totals are deterministic (the cycle model);
//! instructions/second is wall-clock and machine-dependent, which is fine
//! for a trajectory: the recorded pairs in one run come from the same
//! machine. Each engine's throughput is a min-time estimate: the mix runs
//! for several rounds, each workload image keeps its *fastest* round, and
//! the reported rate is total instructions over the sum of per-image
//! minima. On a shared host, interference only ever subtracts throughput,
//! so the per-image minimum is the closest observation of the machine's
//! true rate. Within a round the engines run *paired* — the same image
//! back-to-back on every engine — so an interference patch lands on the
//! same image under both engines and cancels out of the recorded ratio
//! instead of skewing one side.
//!
//! Both accounting modes of the one driver run the identical mix:
//! per-op reference accounting (`ExecBackend::Interp`, the historical
//! `insts_per_sec` trajectory) and block pre-charge (`Compiled`, what
//! every caller but the parity checks runs). Their instruction and cycle totals
//! are asserted equal — the bench doubles as a whole-mix parity check —
//! and the headline `compiled_speedup_vs_interp` ratio is
//! machine-independent.
//!
//! Besides the headline (full-pipeline, `cfg`) trajectory, the JSON
//! carries an `opt_levels` section: the same mix at `none` / `block` /
//! `cfg` under both engines, with executed `aut` counts, so the
//! check-optimizer's dynamic effect is recorded next to the throughput it
//! buys.
//!
//! The telemetry-enabled rounds run under *both* modes (block pre-charge
//! counts opcode classes per block, reference accounting per op), and
//! an attribution-profiler round pins the profiler's two guarantees on
//! the real mix: inertness (attr-on deterministic totals are asserted
//! bit-identical to attr-off) and a recorded profiler-on cost. A flight
//! recorder round does the same for the violation-forensics ring buffer:
//! record-on deterministic totals must be bit-identical to the default
//! record-off run (the recorder only observes), and the recorder-on cost
//! is recorded beside the attr cost. Both observer rounds run the block
//! pre-charge, as `rsti profile`, `explain` and `serve` do by default,
//! and their costs are against the unobserved block pre-charge. Every run appends one
//! schema-versioned line to `reports/bench_history.jsonl`, the
//! trajectory log the gates below diff.
//!
//! The run then gates itself ([`rsti_bench::gates`]): it diffs its entry
//! against the last committed one (read before appending), prints
//! `::warning::` lines for a regression or a costly profiler, and exits
//! non-zero when the compiled/interp or serve warm/cold ratio falls below
//! its floor.

use rsti_bench::gates::{check_trajectory, last_entry};
use rsti_core::{Mechanism, OptLevel};
use rsti_telemetry::json::{self, Fixed};
use rsti_telemetry::{parse_json, Json};
use rsti_vm::{ExecBackend, Image, Status, Vm};
use std::io::Write as _;
use std::time::Instant;

/// The trajectory log: one schema-versioned entry per run.
const HISTORY: &str = "reports/bench_history.jsonl";

/// Interpreter instructions/second measured on this codebase *before* the
/// zero-clone hot-loop rework (per-step `Inst`/`Term` clones, `Vec<u8>`
/// per store, per-frame `HashMap` alloca cache, per-run module deep
/// clone), on the same reference machine that produced the first
/// `BENCH_vm.json`. Kept as the fixed comparison point for the >= 2x
/// acceptance bar; see BENCH_vm.json for the trajectory.
const PRE_CHANGE_INSTS_PER_SEC: f64 = 23_351_000.0;

#[derive(Default)]
struct MixResult {
    insts: u64,
    cycles: u64,
    secs: f64,
    pac_auths: u64,
}

impl MixResult {
    fn ips(&self) -> f64 {
        self.insts as f64 / self.secs
    }
}

/// Builds the full workload-image set (baseline + STWC for every mix
/// workload) at `level` for `exec`, translated and ready to run — image
/// construction, instrumentation, and compiled-engine translation are all
/// one-time costs that must stay outside every timer.
fn build_imgs(level: OptLevel, exec: ExecBackend, attr: bool) -> Vec<Image> {
    let mut imgs = Vec::new();
    let ws: Vec<_> = rsti_workloads::nbench().into_iter().chain(rsti_workloads::nginx()).collect();
    for w in &ws {
        let m = w.proxy_module();
        for choice in [None, Some(Mechanism::Stwc)] {
            imgs.push(Image::build(&m, choice, level).0.with_exec(exec));
        }
    }
    if attr {
        imgs = imgs.into_iter().map(Image::with_attr).collect();
    }
    for img in &imgs {
        img.precompile();
    }
    imgs
}

/// One timed run of one image: elapsed time folds into `best[i]` as a
/// running minimum; deterministic totals accumulate into `out` only when
/// `first` (they repeat exactly every round).
fn time_one(img: &Image, i: usize, best: &mut [f64], out: &mut MixResult, first: bool) {
    let t = Instant::now();
    let mut vm = Vm::new(img);
    vm.set_fuel(200_000_000);
    let r = vm.run();
    let dt = t.elapsed().as_secs_f64();
    assert!(matches!(r.status, Status::Exited(0)), "image {i}: {:?}", r.status);
    best[i] = best[i].min(dt);
    if first {
        out.insts += r.insts;
        out.cycles += r.cycles;
        out.pac_auths += r.pac_auths;
    }
}


/// The bench doubles as a whole-mix parity check: the engines must agree
/// on every deterministic total.
fn assert_mix_parity(interp: &MixResult, compiled: &MixResult, what: &str) {
    assert_eq!(interp.insts, compiled.insts, "{what}: instruction totals diverge");
    assert_eq!(interp.cycles, compiled.cycles, "{what}: cycle-model totals diverge");
    assert_eq!(interp.pac_auths, compiled.pac_auths, "{what}: pac_auth totals diverge");
}

/// Measures the `rsti serve` cache effect end-to-end: the same request
/// cold (fresh server: full parse → lower → instrument → optimize →
/// translate → run) vs warm (cache hit: run only). The request is a
/// big-code/small-run composite — every kernel family at one iteration —
/// so pipeline cost dominates the cold path the way it does for a
/// service's first sight of a module; the warm/cold ratio is then a
/// pipeline-amortization measurement, not a VM-throughput one. Returns
/// `(cold_ms, warm_ms, speedup)`, min-of-N on both sides.
fn measure_serve() -> (f64, f64, f64) {
    use rsti_workloads::kernels as k;
    let mut kernels = Vec::new();
    for c in 0..2 {
        kernels.push(k::list_kernel(&format!("l{c}"), 3, 1));
        kernels.push(k::dispatch_kernel(&format!("d{c}"), 3, 1));
        kernels.push(k::string_kernel(&format!("s{c}"), 4, 1));
        kernels.push(k::numeric_kernel(&format!("n{c}"), 4, 1));
        kernels.push(k::float_kernel(&format!("f{c}"), 3, 1));
        kernels.push(k::graph_kernel(&format!("g{c}"), 3, 1));
        kernels.push(k::server_kernel(&format!("v{c}"), 2, 1));
        kernels.push(k::interp_kernel(&format!("i{c}"), 4, 1));
        kernels.push(k::tree_kernel(&format!("t{c}"), 4, 1));
    }
    let src = k::assemble(&kernels);
    let line = json::object(|o| {
        o.field("id", 1u64)
            .field("cmd", "run")
            .field("source", &src)
            .field("mech", "stwc")
            .field("opt", "cfg")
            .field("enforce", "pac");
    });
    let mut cold = f64::INFINITY;
    for _ in 0..5 {
        let server = rsti_serve::Server::new(rsti_serve::ServeConfig::default());
        let t = Instant::now();
        let resp = server.handle_line(&line);
        cold = cold.min(t.elapsed().as_secs_f64());
        assert!(resp.contains("\"cache\":\"miss\""), "fresh server must miss: {resp}");
        assert!(resp.contains("\"status\":\"exit 0\""), "{resp}");
    }
    let server = rsti_serve::Server::new(rsti_serve::ServeConfig::default());
    let first = server.handle_line(&line);
    let mut warm = f64::INFINITY;
    let mut warm_resp = String::new();
    for _ in 0..30 {
        let t = Instant::now();
        warm_resp = server.handle_line(&line);
        warm = warm.min(t.elapsed().as_secs_f64());
    }
    assert!(warm_resp.contains("\"cache\":\"hit\""), "{warm_resp}");
    assert_eq!(
        warm_resp.replace("\"cache\":\"hit\"", "\"cache\":\"miss\""),
        first,
        "warm serve responses must be byte-identical to the cold response"
    );
    (cold * 1e3, warm * 1e3, cold / warm)
}

fn main() {
    // Warm up caches/allocator, then measure. The telemetry-disabled mix
    // is the default state and the one the trajectory tracks; the same
    // mix with the collector enabled (no sink) measures the cost of live
    // counting and pins the off-by-default guarantee — the disabled path
    // adds only branch-on-bool no-ops. The states run paired per image
    // (interp off, interp on, compiled off — same image back-to-back) so machine drift covers every side of each
    // comparison instead of landing entirely on one.
    let prev = last_history_entry();
    let tel = rsti_telemetry::global();
    tel.disable();
    let interp_imgs = build_imgs(OptLevel::Cfg, ExecBackend::Interp, false);
    let compiled_imgs = build_imgs(OptLevel::Cfg, ExecBackend::Compiled, false);
    let attr_imgs = build_imgs(OptLevel::Cfg, ExecBackend::Compiled, true);
    let rec_imgs: Vec<Image> = build_imgs(OptLevel::Cfg, ExecBackend::Compiled, false)
        .into_iter()
        .map(Image::with_record)
        .collect();
    let n = interp_imgs.len();
    let mut scratch = vec![f64::INFINITY; n];
    let mut sink = MixResult::default();
    for i in 0..n {
        time_one(&interp_imgs[i], i, &mut scratch, &mut sink, false);
        time_one(&compiled_imgs[i], i, &mut scratch, &mut sink, false);
    }
    let mut m = MixResult::default();
    let mut t = MixResult::default();
    let mut c = MixResult::default();
    let mut ct = MixResult::default();
    let mut a = MixResult::default();
    let mut rr = MixResult::default();
    let mut bm = vec![f64::INFINITY; n];
    let mut bt = vec![f64::INFINITY; n];
    let mut bc = vec![f64::INFINITY; n];
    let mut bct = vec![f64::INFINITY; n];
    let mut ba = vec![f64::INFINITY; n];
    let mut brr = vec![f64::INFINITY; n];
    for round in 0..10 {
        let first = round == 0;
        for i in 0..n {
            tel.disable();
            time_one(&interp_imgs[i], i, &mut bm, &mut m, first);
            tel.enable();
            time_one(&interp_imgs[i], i, &mut bt, &mut t, first);
            tel.disable();
            time_one(&compiled_imgs[i], i, &mut bc, &mut c, first);
            tel.enable();
            time_one(&compiled_imgs[i], i, &mut bct, &mut ct, first);
            tel.disable();
            time_one(&attr_imgs[i], i, &mut ba, &mut a, first);
            time_one(&rec_imgs[i], i, &mut brr, &mut rr, first);
        }
    }
    tel.disable();
    tel.reset();
    m.secs = bm.iter().sum();
    t.secs = bt.iter().sum();
    c.secs = bc.iter().sum();
    ct.secs = bct.iter().sum();
    a.secs = ba.iter().sum();
    rr.secs = brr.iter().sum();
    assert_mix_parity(&m, &c, "headline mix");
    // The profiler's inertness guarantee, asserted on the real mix: with
    // attribution on, every deterministic total is bit-identical to the
    // profiler-off run — the profiler only observes.
    assert_mix_parity(&m, &a, "attr-on mix (inertness)");
    // Same guarantee for the violation-forensics flight recorder: arming
    // it changes no deterministic total, so the default record-off
    // trajectory numbers are what a never-armed build would produce.
    assert_mix_parity(&m, &rr, "record-on mix (inertness)");
    let ips = m.ips();
    let speedup = ips / PRE_CHANGE_INSTS_PER_SEC;
    let ips_on = t.ips();
    let on_delta_pct = (ips / ips_on - 1.0) * 100.0;
    let cips = c.ips();
    let cspeed = cips / ips;
    let cips_on = ct.ips();
    let con_delta_pct = (cips / cips_on - 1.0) * 100.0;
    let aips = a.ips();
    let attr_delta_pct = (cips / aips - 1.0) * 100.0;
    let rips = rr.ips();
    let record_delta_pct = (cips / rips - 1.0) * 100.0;

    println!("vm_throughput: nbench + NGINX mix, baseline + STWC");
    println!("  instructions executed : {} (one mix pass)", m.insts);
    println!("  best wall time (interp): {:.3} s", m.secs);
    println!("  interp insts/second   : {ips:.0}");
    println!("  compiled insts/second : {cips:.0}  (x{cspeed:.2} vs interp)");
    println!("  cycle-model total     : {}", m.cycles);
    println!("  pre-change insts/sec  : {PRE_CHANGE_INSTS_PER_SEC:.0}  (x{speedup:.2})");
    println!("  telemetry-on insts/s  : {ips_on:.0}  (enabled costs {on_delta_pct:+.2}%)");
    println!("  compiled tel-on i/s   : {cips_on:.0}  (enabled costs {con_delta_pct:+.2}%)");
    println!("  attr-on insts/s       : {aips:.0}  (profiler costs {attr_delta_pct:+.2}%, compiled)");
    println!("  record-on insts/s     : {rips:.0}  (recorder costs {record_delta_pct:+.2}%, compiled)");

    // The serve-cache amortization headline: one request, cold vs warm.
    let (serve_cold_ms, serve_warm_ms, serve_speedup) = measure_serve();
    println!(
        "  serve cold -> warm    : {serve_cold_ms:.2} ms -> {serve_warm_ms:.3} ms  (x{serve_speedup:.1} via module cache)"
    );

    // The optimizer-level ablation on the same mix, under both engines:
    // fewer executed checks ⇒ fewer instructions ⇒ more useful work per
    // second. Engines run paired per image, like the headline, so
    // slow machine drift lands on both sides of each ratio (cycle totals
    // and auth counts are deterministic; insts/sec is indicative).
    let mut levels = Vec::new();
    println!("  per-opt-level (same mix, 8 paired rounds each):");
    for level in OptLevel::ALL {
        let imgs = build_imgs(level, ExecBackend::Interp, false);
        let cimgs = build_imgs(level, ExecBackend::Compiled, false);
        let mut r = MixResult::default();
        let mut rc = MixResult::default();
        let mut br = vec![f64::INFINITY; imgs.len()];
        let mut brc = vec![f64::INFINITY; cimgs.len()];
        for round in 0..8 {
            for j in 0..imgs.len() {
                time_one(&imgs[j], j, &mut br, &mut r, round == 0);
                time_one(&cimgs[j], j, &mut brc, &mut rc, round == 0);
            }
        }
        r.secs = br.iter().sum();
        rc.secs = brc.iter().sum();
        assert_mix_parity(&r, &rc, level.label());
        println!(
            "    {:<6} interp {:>12.0}/s  compiled {:>12.0}/s (x{:.2})  cycles {:>12}  auths {:>9}",
            level.label(),
            r.ips(),
            rc.ips(),
            rc.ips() / r.ips(),
            r.cycles,
            r.pac_auths
        );
        levels.push((level, r, rc));
    }

    let json = json::object(|o| {
        o.field("bench", "vm_throughput")
            .field("workload_mix", "nbench+nginx, baseline+stwc")
            .field("pre_change_insts_per_sec", Fixed(PRE_CHANGE_INSTS_PER_SEC, 0))
            .field("insts_per_sec", Fixed(ips, 0))
            .field("speedup_vs_pre_change", Fixed(speedup, 3))
            .field("compiled_insts_per_sec", Fixed(cips, 0))
            .field("compiled_speedup_vs_interp", Fixed(cspeed, 3))
            .field("instructions", m.insts)
            .field("cycle_model_total", m.cycles)
            .field("wall_seconds", Fixed(m.secs, 4))
            .field("telemetry_on_insts_per_sec", Fixed(ips_on, 0))
            .field("telemetry_enabled_cost_pct", Fixed(on_delta_pct, 2))
            .field("compiled_telemetry_on_insts_per_sec", Fixed(cips_on, 0))
            .field("compiled_telemetry_cost_pct", Fixed(con_delta_pct, 2))
            .field("attr_on_insts_per_sec", Fixed(aips, 0))
            .field("attr_cost_pct", Fixed(attr_delta_pct, 2))
            .field("record_on_insts_per_sec", Fixed(rips, 0))
            .field("record_cost_pct", Fixed(record_delta_pct, 2))
            .field("serve_cold_ms", Fixed(serve_cold_ms, 3))
            .field("serve_warm_ms", Fixed(serve_warm_ms, 4))
            .field("serve_warm_speedup", Fixed(serve_speedup, 1));
        o.array("opt_levels", |a| {
            for (level, r, rc) in &levels {
                a.object(|o| {
                    o.field("level", level.label())
                        .field("insts_per_sec", Fixed(r.ips(), 0))
                        .field("compiled_insts_per_sec", Fixed(rc.ips(), 0))
                        .field("compiled_speedup", Fixed(rc.ips() / r.ips(), 3))
                        .field("instructions", r.insts)
                        .field("cycle_model_total", r.cycles)
                        .field("pac_auths", r.pac_auths);
                });
            }
        });
    });
    std::fs::write("BENCH_vm.json", json + "\n").expect("write BENCH_vm.json");
    println!("wrote BENCH_vm.json");

    // One schema-versioned line per run appended to the trajectory log;
    // the gates below diff it against the last committed one.
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = json::object(|o| {
        o.field("schema", 1u64)
            .field("unix_ts", unix_ts)
            .field("bench", "vm_throughput")
            .field("insts_per_sec", Fixed(ips, 0))
            .field("compiled_insts_per_sec", Fixed(cips, 0))
            .field("compiled_speedup_vs_interp", Fixed(cspeed, 3))
            .field("telemetry_enabled_cost_pct", Fixed(on_delta_pct, 2))
            .field("compiled_telemetry_cost_pct", Fixed(con_delta_pct, 2))
            .field("attr_on_insts_per_sec", Fixed(aips, 0))
            .field("attr_cost_pct", Fixed(attr_delta_pct, 2))
            .field("record_cost_pct", Fixed(record_delta_pct, 2))
            .field("serve_warm_speedup", Fixed(serve_speedup, 1))
            .field("instructions", m.insts)
            .field("cycle_model_total", m.cycles)
            .field("pac_auths", m.pac_auths);
    });
    std::fs::create_dir_all("reports").expect("create reports/");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY)
        .and_then(|mut f| f.write_all(format!("{entry}\n").as_bytes()))
        .expect("append reports/bench_history.jsonl");
    println!("appended {HISTORY}");

    // The gates read this run's entry back exactly as it was recorded.
    let entry = parse_json(&entry).expect("the writer emits valid JSON");
    let report = check_trajectory(prev.as_ref(), &entry);
    for note in &report.notes {
        println!("  {note}");
    }
    for w in &report.warnings {
        println!("::warning::{w}");
    }
    for f in &report.failures {
        println!("::error::{f}");
    }
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

/// The last entry of the committed trajectory log, read before this run
/// appends its own (`None` when the log is absent, empty, or its last line
/// does not parse).
fn last_history_entry() -> Option<Json> {
    last_entry(&std::fs::read_to_string(HISTORY).ok()?)
}
