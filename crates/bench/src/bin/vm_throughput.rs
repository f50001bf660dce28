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
//! per-op reference accounting (`exec=interp`, the historical
//! `insts_per_sec` trajectory) and block pre-charge (`exec=compiled`, the
//! default every other caller runs). Their instruction and cycle totals
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
//! is recorded beside the attr cost. Every run appends one
//! schema-versioned line to `reports/bench_history.jsonl` — the
//! trajectory log that `rsti report` diffs and CI's regression check
//! reads.

use rsti_core::{Mechanism, OptLevel};
use rsti_vm::{ExecBackend, Image, Status, Vm};
use std::fmt::Write as _;
use std::time::Instant;

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
        let mut m = w.module();
        rsti_core::inline_leaf_functions(&mut m, 96);
        let mut mb = m.clone();
        rsti_core::optimize_module(&mut mb, level);
        imgs.push(Image::baseline_owned(mb).with_exec(exec));
        let mut p = rsti_core::instrument(&m, Mechanism::Stwc);
        rsti_core::optimize_module(&mut p.module, level);
        imgs.push(Image::from_instrumented_owned(p).with_exec(exec));
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
    let line = format!(
        "{{\"id\":1,\"cmd\":\"run\",\"source\":{},\"mech\":\"stwc\",\"opt\":\"cfg\",\
         \"exec\":\"compiled\",\"enforce\":\"pac\"}}",
        rsti_telemetry::json_str(&src)
    );
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
    let tel = rsti_telemetry::global();
    tel.disable();
    let interp_imgs = build_imgs(OptLevel::Cfg, ExecBackend::Interp, false);
    let compiled_imgs = build_imgs(OptLevel::Cfg, ExecBackend::Compiled, false);
    let attr_imgs = build_imgs(OptLevel::Cfg, ExecBackend::Interp, true);
    let rec_imgs: Vec<Image> = build_imgs(OptLevel::Cfg, ExecBackend::Interp, false)
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
    let attr_delta_pct = (ips / aips - 1.0) * 100.0;
    let rips = rr.ips();
    let record_delta_pct = (ips / rips - 1.0) * 100.0;

    println!("vm_throughput: nbench + NGINX mix, baseline + STWC");
    println!("  instructions executed : {} (one mix pass)", m.insts);
    println!("  best wall time (interp): {:.3} s", m.secs);
    println!("  interp insts/second   : {ips:.0}");
    println!("  compiled insts/second : {cips:.0}  (x{cspeed:.2} vs interp)");
    println!("  cycle-model total     : {}", m.cycles);
    println!("  pre-change insts/sec  : {PRE_CHANGE_INSTS_PER_SEC:.0}  (x{speedup:.2})");
    println!("  telemetry-on insts/s  : {ips_on:.0}  (enabled costs {on_delta_pct:+.2}%)");
    println!("  compiled tel-on i/s   : {cips_on:.0}  (enabled costs {con_delta_pct:+.2}%)");
    println!("  attr-on insts/s       : {aips:.0}  (profiler costs {attr_delta_pct:+.2}%, interp)");
    println!("  record-on insts/s     : {rips:.0}  (recorder costs {record_delta_pct:+.2}%, interp)");

    // The serve-cache amortization headline: one request, cold vs warm.
    let (serve_cold_ms, serve_warm_ms, serve_speedup) = measure_serve();
    println!(
        "  serve cold -> warm    : {serve_cold_ms:.2} ms -> {serve_warm_ms:.3} ms  (x{serve_speedup:.1} via module cache)"
    );
    if serve_speedup < 10.0 {
        println!("  WARNING: serve_warm_speedup {serve_speedup:.1} below the 10x acceptance bar");
    }

    // The optimizer-level ablation on the same mix, under both engines:
    // fewer executed checks ⇒ fewer instructions ⇒ more useful work per
    // second. Engines run paired per image, like the headline, so
    // slow machine drift lands on both sides of each ratio (cycle totals
    // and auth counts are deterministic; insts/sec is indicative).
    let mut levels_json = String::new();
    println!("  per-opt-level (same mix, 8 paired rounds each):");
    for (i, level) in OptLevel::ALL.iter().enumerate() {
        let imgs = build_imgs(*level, ExecBackend::Interp, false);
        let cimgs = build_imgs(*level, ExecBackend::Compiled, false);
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
        let (lips, lcips) = (r.ips(), rc.ips());
        let (insts_1, cycles_1, auths_1) = (r.insts, r.cycles, r.pac_auths);
        println!(
            "    {:<6} interp {:>12.0}/s  compiled {:>12.0}/s (x{:.2})  cycles {:>12}  auths {:>9}",
            level.label(),
            lips,
            lcips,
            lcips / lips,
            cycles_1,
            auths_1
        );
        let _ = write!(
            levels_json,
            "{}    {{\"level\": \"{}\", \"insts_per_sec\": {:.0}, \
             \"compiled_insts_per_sec\": {:.0}, \"compiled_speedup\": {:.3}, \
             \"instructions\": {}, \"cycle_model_total\": {}, \"pac_auths\": {}}}",
            if i == 0 { "" } else { ",\n" },
            level.label(),
            lips,
            lcips,
            lcips / lips,
            insts_1,
            cycles_1,
            auths_1
        );
    }

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let json = format!(
        "{{\n  \"bench\": \"vm_throughput\",\n  \"workload_mix\": \"nbench+nginx, baseline+stwc\",\n  \
         \"pre_change_insts_per_sec\": {PRE_CHANGE_INSTS_PER_SEC:.0},\n  \
         \"insts_per_sec\": {ips:.0},\n  \"speedup_vs_pre_change\": {speedup:.3},\n  \
         \"compiled_insts_per_sec\": {cips:.0},\n  \
         \"compiled_speedup_vs_interp\": {cspeed:.3},\n  \
         \"instructions\": {},\n  \"cycle_model_total\": {},\n  \"wall_seconds\": {:.4},\n  \
         \"telemetry_on_insts_per_sec\": {ips_on:.0},\n  \
         \"telemetry_enabled_cost_pct\": {on_delta_pct:.2},\n  \
         \"compiled_telemetry_on_insts_per_sec\": {cips_on:.0},\n  \
         \"compiled_telemetry_cost_pct\": {con_delta_pct:.2},\n  \
         \"attr_on_insts_per_sec\": {aips:.0},\n  \
         \"attr_cost_pct\": {attr_delta_pct:.2},\n  \
         \"record_on_insts_per_sec\": {rips:.0},\n  \
         \"record_cost_pct\": {record_delta_pct:.2},\n  \
         \"serve_cold_ms\": {serve_cold_ms:.3},\n  \
         \"serve_warm_ms\": {serve_warm_ms:.4},\n  \
         \"serve_warm_speedup\": {serve_speedup:.1},\n  \
         \"opt_levels\": [\n{levels_json}\n  ]\n}}\n",
        m.insts, m.cycles, m.secs
    );
    std::fs::write("BENCH_vm.json", &json).expect("write BENCH_vm.json");
    println!("wrote BENCH_vm.json");

    // One schema-versioned line per run appended to the trajectory log —
    // `rsti report` diffs the last two entries, and CI's regression check
    // reads the final line instead of digging through git history.
    let unix_ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = format!(
        "{{\"schema\": 1, \"unix_ts\": {unix_ts}, \"bench\": \"vm_throughput\", \
         \"insts_per_sec\": {ips:.0}, \"compiled_insts_per_sec\": {cips:.0}, \
         \"compiled_speedup_vs_interp\": {cspeed:.3}, \
         \"telemetry_enabled_cost_pct\": {on_delta_pct:.2}, \
         \"compiled_telemetry_cost_pct\": {con_delta_pct:.2}, \
         \"attr_on_insts_per_sec\": {aips:.0}, \"attr_cost_pct\": {attr_delta_pct:.2}, \
         \"record_cost_pct\": {record_delta_pct:.2}, \
         \"serve_warm_speedup\": {serve_speedup:.1}, \
         \"instructions\": {}, \"cycle_model_total\": {}, \"pac_auths\": {}}}\n",
        m.insts, m.cycles, m.pac_auths
    );
    std::fs::create_dir_all("reports").expect("create reports/");
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open("reports/bench_history.jsonl")
        .and_then(|mut f| f.write_all(entry.as_bytes()))
        .expect("append reports/bench_history.jsonl");
    println!("appended reports/bench_history.jsonl");
}
