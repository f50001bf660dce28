//! What every workload measures the same way: the model-cycle overhead
//! table, dynamic PAC counts, the `rsti_telemetry` counters, the frontend
//! spans, the PA-unit micro-measurement and the attribution profile.
//!
//! Every workload prints every metric of `BENCHMARK.json`, each over its
//! own programs and operations, so these helpers keep the definitions in
//! one place.

use crate::trace::{median_ms, Tracer};
use crate::Metrics;
use rsti_core::{Mechanism, OptLevel};
use rsti_ir::Module;
use rsti_telemetry::CounterId;
use rsti_vm::{ExecBackend, ExecResult, Image, Status, Vm, OPCLASS_ORDER};
use std::collections::BTreeMap;
use std::time::Instant;

pub const MECHS: [Mechanism; 3] = rsti_bench::MECHS;
pub const LEVELS: [OptLevel; 2] = [OptLevel::Cfg, OptLevel::Ipo];
/// Same fuel budget as the Fig. 9 harness and the server's default.
pub const FUEL: u64 = 200_000_000;
/// Sign+auth pairs in the PA-unit micro-measurement.
const PAC_PAIRS: u64 = 1 << 19;

pub fn mech_label(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Stwc => "stwc",
        Mechanism::Stc => "stc",
        Mechanism::Stl => "stl",
        Mechanism::Parts => "parts",
    }
}

/// `<mech>.<level>` for `MECHS[mi]` at `LEVELS[li]`.
fn key(li: usize, mi: usize) -> String {
    format!("{}.{}", mech_label(MECHS[mi]), LEVELS[li].label())
}

pub fn run_image(img: &Image) -> ExecResult {
    let mut vm = Vm::new(img);
    vm.set_fuel(FUEL);
    vm.run()
}

/// Model-cycle overhead of instrumented runs over their baselines, in %,
/// per level and mechanism.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Overheads(pub [[Vec<f64>; 3]; 2]);

impl Overheads {
    pub fn push(&mut self, li: usize, mi: usize, cycles: u64, base_cycles: u64) {
        self.0[li][mi].push((cycles as f64 / base_cycles as f64 - 1.0) * 100.0);
    }

    /// Appends `o`'s samples after this table's.
    pub fn extend(&mut self, o: Overheads) {
        for (a, b) in self.0.iter_mut().flatten().zip(o.0.into_iter().flatten()) {
            a.extend(b);
        }
    }

    /// `overhead_pct.<mech>.<level>`: the geomean over the samples,
    /// `rsti_bench::geomean_pct`.
    pub fn put(&self, m: &mut Metrics) {
        for li in 0..LEVELS.len() {
            for mi in 0..MECHS.len() {
                m.put(
                    format!("overhead_pct.{}", key(li, mi)),
                    rsti_bench::geomean_pct(self.0[li][mi].iter().copied()),
                    "%",
                );
            }
        }
    }

    /// Every level and mechanism has at least one sample.
    pub fn complete(&self) -> bool {
        self.0.iter().flatten().all(|v| !v.is_empty())
    }
}

/// Dynamic PAC signs and auths of instrumented runs, per level and
/// mechanism.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DynPac {
    runs: [[u64; 3]; 2],
    auths: [[u64; 3]; 2],
    signs: [[u64; 3]; 2],
}

impl DynPac {
    pub fn add(&mut self, li: usize, mi: usize, auths: u64, signs: u64) {
        self.runs[li][mi] += 1;
        self.auths[li][mi] += auths;
        self.signs[li][mi] += signs;
    }

    pub fn merge(&mut self, o: &DynPac) {
        for li in 0..LEVELS.len() {
            for mi in 0..MECHS.len() {
                self.runs[li][mi] += o.runs[li][mi];
                self.auths[li][mi] += o.auths[li][mi];
                self.signs[li][mi] += o.signs[li][mi];
            }
        }
    }

    /// `core.dyn_{auths,signs}.<mech>.<level>`: mean per instrumented run.
    pub fn put(&self, m: &mut Metrics) {
        for li in 0..LEVELS.len() {
            for mi in 0..MECHS.len() {
                let n = self.runs[li][mi].max(1) as f64;
                let k = key(li, mi);
                m.put(
                    format!("core.dyn_auths.{k}"),
                    self.auths[li][mi] as f64 / n,
                    "count",
                );
                m.put(
                    format!("core.dyn_signs.{k}"),
                    self.signs[li][mi] as f64 / n,
                    "count",
                );
            }
        }
    }
}

/// The `rsti_telemetry` counters collected since the last reset:
/// instrumentation sites and optimizer counts per instrumented build,
/// executed instructions by opcode class and PAC operations per VM run.
pub fn put_telemetry(m: &mut Metrics, builds: u64) {
    let tel = rsti_telemetry::global();
    let get = |id: CounterId| tel.get(id) as f64;
    let per_build = |v: f64| v / builds.max(1) as f64;
    let runs = (get(CounterId::VmRunsInterp) + get(CounterId::VmRunsCompiled)).max(1.0);
    m.put(
        "core.static_sites",
        per_build(get(CounterId::SignsInserted) + get(CounterId::AuthsInserted)),
        "count",
    );
    for (name, id) in [
        ("elided_block", CounterId::AuthsElidedBlock),
        ("hoisted", CounterId::AuthsHoisted),
        ("elided_dom", CounterId::AuthsElidedDom),
        ("premods", CounterId::ModifiersPrecomputed),
        ("elided_ipo", CounterId::AuthsElidedIpo),
        ("inlined", CounterId::CallsInlined),
        ("refined", CounterId::SummaryKillRefinements),
    ] {
        m.put(format!("core.opt.{name}"), per_build(get(id)), "count");
    }
    let opclass = [
        CounterId::VmInstMem,
        CounterId::VmInstArith,
        CounterId::VmInstCall,
        CounterId::VmInstPac,
        CounterId::VmInstBranch,
        CounterId::VmInstOther,
    ];
    for (name, id) in OPCLASS_ORDER.iter().zip(opclass) {
        m.put(format!("vm.opclass.{name}"), get(id) / runs, "count");
    }
    m.put(
        "pac.ops",
        (get(CounterId::VmPacSigns) + get(CounterId::VmPacAuths)) / runs,
        "count",
    );
}

/// Compiles every source under `frontend.parse` and `frontend.compile`
/// spans (a separate parse splits frontend time into parse and lowering).
/// Returns the modules and the source bytes compiled.
pub fn frontend_pass(t: &mut Tracer, sources: &[&str]) -> (Vec<Option<Module>>, u64) {
    let mods = sources
        .iter()
        .map(|src| {
            let _ = t.time("frontend.parse", || rsti_frontend::parse(src));
            t.time("frontend.compile", || rsti_frontend::compile(src, "bench"))
                .ok()
        })
        .collect();
    (mods, sources.iter().map(|s| s.len() as u64).sum())
}

/// `frontend.{parse_ms,lower_ms,src_mb_per_s}` from the spans of
/// [`frontend_pass`] (or of a workload's own parse/compile pairs).
pub fn put_frontend(m: &mut Metrics, st: &BTreeMap<&'static str, Vec<u64>>, src_bytes: u64) {
    let spans = |name: &str| st.get(name).map_or(&[][..], Vec::as_slice);
    let lower: Vec<u64> = spans("frontend.compile")
        .iter()
        .zip(spans("frontend.parse"))
        .map(|(c, p)| c.saturating_sub(*p))
        .collect();
    let compile_s = spans("frontend.compile").iter().sum::<u64>() as f64 / 1e9;
    m.put(
        "frontend.parse_ms",
        median_ms(spans("frontend.parse")),
        "ms",
    );
    m.put("frontend.lower_ms", median_ms(&lower), "ms");
    m.put(
        "frontend.src_mb_per_s",
        src_bytes as f64 / 1e6 / compile_s,
        "MB/s",
    );
}

/// A sign+auth pair on a seeded stream of heap pointers and a small set
/// of type modifiers (the shape of an RSTI check stream), in ns per pair.
pub fn pac_pair_ns(seed: u64) -> f64 {
    use rsti_pac::{KeyId, PacUnit};
    let mut unit = PacUnit::for_tests();
    let mut rng = rsti_rng::Rng64::seed_from_u64(seed ^ 0x5041_4331);
    let stream: Vec<(u64, u64)> = (0..4096)
        .map(|_| {
            let ptr = rsti_vm::layout::HEAP_BASE + rng.gen_range(0, 1 << 16) * 16;
            (ptr, rng.gen_range(1, 17))
        })
        .collect();
    let t0 = Instant::now();
    let mut ok = 0u64;
    for i in 0..PAC_PAIRS {
        let (ptr, modifier) = stream[(i % stream.len() as u64) as usize];
        let signed = unit.sign(KeyId::Da, std::hint::black_box(ptr), modifier);
        ok += u64::from(unit.auth(KeyId::Da, signed, modifier).is_ok());
    }
    let ns = t0.elapsed().as_nanos() as f64 / PAC_PAIRS as f64;
    assert_eq!(ok, PAC_PAIRS, "a freshly signed pointer must authenticate");
    ns
}

/// What [`profile`] measured.
pub struct Profile {
    /// Model cycles of every instrumented run, split by the attribution
    /// profiler into [total, PAC sign/auth/strip and pp runtime,
    /// register-domain re-signs].
    split: [u64; 3],
    /// Per program: STWC instrumented load/store sites (the §6.3.2
    /// x-axis) and STWC overhead in %.
    sites: Vec<f64>,
    stwc_pct: Vec<f64>,
    /// Instrumented runs whose status or output differed from the
    /// baseline's.
    pub failed: u64,
    pub attempted: u64,
}

/// Runs every program as baseline and under each mechanism at `cfg` on the
/// compiled engine, the instrumented runs with `Image::with_attr`; with
/// `inline`, each program first goes through `inline_leaf_functions(96)`
/// (the Fig. 9 recipe). Translation is timed as `vm.translate`.
pub fn profile(programs: &[Module], inline: bool, t: &mut Tracer) -> Profile {
    let mut p = Profile {
        split: [0; 3],
        sites: Vec::new(),
        stwc_pct: Vec::new(),
        failed: 0,
        attempted: 0,
    };
    for m0 in programs {
        let mut m = m0.clone();
        if inline {
            rsti_core::inline_leaf_functions(&mut m, 96);
        }
        let mut mb = m.clone();
        rsti_core::optimize_module(&mut mb, OptLevel::Cfg);
        let base_img = Image::baseline_owned(mb).with_exec(ExecBackend::Compiled);
        let base = run_image(&base_img);
        for mech in MECHS {
            let mut prog = rsti_core::instrument(&m, mech);
            rsti_core::optimize_module(&mut prog.module, OptLevel::Cfg);
            let sites = (prog.stats.signs_on_store + prog.stats.auths_on_load) as f64;
            let img = Image::from_instrumented_owned(prog)
                .with_attr()
                .with_exec(ExecBackend::Compiled);
            t.time("vm.translate", || img.precompile());
            let r = t.time("vm.run_attr", || run_image(&img));
            p.attempted += 1;
            if r.status != base.status || r.output != base.output {
                p.failed += 1;
                continue;
            }
            if mech == Mechanism::Stwc && matches!(base.status, Status::Exited(_)) {
                p.sites.push(sites);
                p.stwc_pct
                    .push((r.cycles as f64 / base.cycles as f64 - 1.0) * 100.0);
            }
            p.split[0] += r.cycles;
            for site in r.attr.iter().flat_map(|prof| &prof.sites) {
                let bucket = if matches!(site.site.site, "cast_resign" | "arg_resign") {
                    2
                } else {
                    1
                };
                p.split[bucket] += site.cycles;
            }
        }
    }
    p
}

impl Profile {
    /// `vm.cycles_split.*` and `vm.pearson_sites_overhead`.
    pub fn put(&self, m: &mut Metrics) {
        let [total, pac, resign] = self.split;
        let share = |x: u64| x as f64 / total.max(1) as f64 * 100.0;
        m.put(
            "vm.cycles_split.app",
            share(total.saturating_sub(pac + resign)),
            "%",
        );
        m.put("vm.cycles_split.pac", share(pac), "%");
        m.put("vm.cycles_split.resign", share(resign), "%");
        m.put(
            "vm.pearson_sites_overhead",
            rsti_bench::pearson(&self.sites, &self.stwc_pct),
            "r",
        );
    }
}
