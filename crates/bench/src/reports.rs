//! Renderers for every committed report: each returns the exact text of
//! one file under `reports/`, and `make_report` writes them all.

use crate::overhead::{
    box_stats, geomean_pct, measure_at, measure_suite, pearson, MeasureError, OverheadRow, MECHS,
};
use rsti_core::{Mechanism, OptLevel};
use rsti_vm::{FuncAttr, Image, Status, Vm};
use rsti_workloads::{cpython, nbench, nginx, spec2006, spec2017, AstGenConfig, Workload};
use std::fmt::Write as _;

pub use rsti_attacks::render_table2;

/// The full Figure 9 data set: per-benchmark SPEC2017 overheads plus the
/// geometric means of every suite and the all-suite mean.
pub struct Fig9 {
    /// SPEC2017 per-benchmark rows.
    pub spec2017: Vec<OverheadRow>,
    /// SPEC2006 rows (aggregated in the figure).
    pub spec2006: Vec<OverheadRow>,
    /// nbench rows.
    pub nbench: Vec<OverheadRow>,
    /// CPython rows.
    pub cpython: Vec<OverheadRow>,
    /// NGINX row.
    pub nginx: Vec<OverheadRow>,
}

impl Fig9 {
    /// Measures everything (minutes of VM time in debug; seconds in
    /// release).
    ///
    /// All five suites are flattened into one workload list and fanned
    /// out together by [`measure_suite`] — one pool, so the long SPEC
    /// rows overlap the short nbench/NGINX tail instead of each suite
    /// serialising on its own slowest member. The flat results are split back per suite in
    /// order, so every row is exactly what a serial sweep would report.
    ///
    /// # Errors
    /// Returns the first failing workload's [`MeasureError`].
    pub fn measure() -> Result<Self, MeasureError> {
        let suites = [spec2017(), spec2006(), nbench(), cpython(), nginx()];
        let counts: Vec<usize> = suites.iter().map(Vec::len).collect();
        let all: Vec<Workload> = suites.into_iter().flatten().collect();
        let mut rows = measure_suite(&all)?.into_iter();
        let mut take = |n: usize| rows.by_ref().take(n).collect::<Vec<_>>();
        Ok(Fig9 {
            spec2017: take(counts[0]),
            spec2006: take(counts[1]),
            nbench: take(counts[2]),
            cpython: take(counts[3]),
            nginx: take(counts[4]),
        })
    }

    /// Geomean of `[STWC, STC, STL]` over a row set.
    pub fn geomeans(rows: &[OverheadRow]) -> [f64; 3] {
        [
            geomean_pct(rows.iter().map(|r| r.overhead_pct[0])),
            geomean_pct(rows.iter().map(|r| r.overhead_pct[1])),
            geomean_pct(rows.iter().map(|r| r.overhead_pct[2])),
        ]
    }

    /// All rows across suites.
    pub fn all_rows(&self) -> Vec<&OverheadRow> {
        self.spec2017
            .iter()
            .chain(&self.spec2006)
            .chain(&self.nbench)
            .chain(&self.cpython)
            .chain(&self.nginx)
            .collect()
    }

    /// Renders the Figure 9 report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Figure 9 reproduction: performance overhead (%) per benchmark and\n\
             suite geomeans, cycle-model VM (PA op = 7 ALU ops, as the paper\n\
             emulates). Columns: RSTI-STWC / RSTI-STC / RSTI-STL.\n\n",
        );
        out.push_str(&format!(
            "{:<20} {:>10} {:>10} {:>10}   {:>8} {:>10} {:>10} {:>10}\n",
            "SPEC CPU2017", "STWC%", "STC%", "STL%", "sites", "base", "signs", "auths"
        ));
        for r in &self.spec2017 {
            out.push_str(&format!(
                "{:<20} {:>10.2} {:>10.2} {:>10.2}   {:>8} {:>10} {:>10} {:>10}\n",
                r.name,
                r.overhead_pct[0],
                r.overhead_pct[1],
                r.overhead_pct[2],
                r.instrumented_sites,
                r.base_cycles,
                r.pac_signs[0],
                r.pac_auths[0],
            ));
        }
        fn push_geo(out: &mut String, label: &str, rows: &[OverheadRow]) {
            let g = Fig9::geomeans(rows);
            out.push_str(&format!(
                "{:<20} {:>10.2} {:>10.2} {:>10.2}\n",
                label, g[0], g[1], g[2]
            ));
        }
        out.push('\n');
        push_geo(&mut out, "Geomean-SPEC2017", &self.spec2017);
        push_geo(&mut out, "Geomean-SPEC2006", &self.spec2006);
        push_geo(&mut out, "Geomean-nbench", &self.nbench);
        push_geo(&mut out, "Geomean-CPython", &self.cpython);
        push_geo(&mut out, "NGINX", &self.nginx);
        let all: Vec<OverheadRow> = self.all_rows().into_iter().cloned().collect();
        push_geo(&mut out, "Geomean-all", &all);

        // §6.3.2 correlation: instrumented load/stores vs overhead.
        let xs: Vec<f64> = all.iter().map(|r| r.instrumented_sites as f64).collect();
        let ys: Vec<f64> = all.iter().map(|r| r.overhead_pct[0]).collect();
        out.push_str(&format!(
            "\nPearson(instrumented load/stores, STWC overhead) = {:.2}  (paper: 0.75-0.8)\n",
            pearson(&xs, &ys)
        ));

        // Dynamic check totals per mechanism (telemetry columns).
        let mut signs = [0u64; 3];
        let mut auths = [0u64; 3];
        for r in &all {
            for i in 0..3 {
                signs[i] += r.pac_signs[i];
                auths[i] += r.pac_auths[i];
            }
        }
        out.push_str(&format!(
            "\nDynamic checks (all suites): \
             STWC {} signs / {} auths;  STC {} signs / {} auths;  STL {} signs / {} auths\n",
            signs[0], auths[0], signs[1], auths[1], signs[2], auths[2]
        ));
        out
    }
}

/// Renders the Figure 10 report (box-plot statistics).
pub fn render_fig10(fig9: &Fig9) -> String {
    let mut out = String::new();
    out.push_str(
        "Figure 10 reproduction: overhead distribution per suite\n\
         (min / q1 / median / q3 / max / geomean, outliers beyond 1.5 IQR)\n\n",
    );
    let mech_names = ["STWC", "STC", "STL"];
    for (suite, rows) in [
        ("SPEC 2006", &fig9.spec2006),
        ("nbench", &fig9.nbench),
        ("PyTorch", &fig9.cpython),
    ] {
        out.push_str(&format!("{suite}:\n"));
        for (mi, mname) in mech_names.iter().enumerate() {
            let vals: Vec<f64> = rows.iter().map(|r| r.overhead_pct[mi]).collect();
            let s = box_stats(&vals);
            out.push_str(&format!(
                "  {:<5} min {:>7.2}  q1 {:>7.2}  med {:>7.2}  q3 {:>7.2}  max {:>7.2}  geo {:>7.2}  outliers {:?}\n",
                mname,
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max,
                s.geomean,
                s.outliers.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
            ));
        }
    }
    out
}

/// Renders the Table 3 reproduction (equivalence-class data, SPEC2006).
pub fn render_table3() -> String {
    let mut out = String::new();
    out.push_str(
        "Table 3 reproduction: SPEC 2006 equivalence-class data\n\
         (NT: basic pointer types; RT: RSTI-types; NV: pointer variables;\n\
         ECV/ECT: largest equivalence class of variables/types)\n\n",
    );
    out.push_str(&format!(
        "{:<12} {:>4} {:>8} {:>9} {:>5} {:>8} {:>9} {:>8} {:>9}\n",
        "BM", "NT", "RT(STC)", "RT(STWC)", "NV", "ECV(STC)", "ECV(STWC)", "ECT(STC)", "ECT(STWC)"
    ));
    for w in spec2006() {
        let m = w.module();
        let s = rsti_core::equivalence_stats(&m);
        assert_eq!(s.invariant_violation(), None, "{}: {s:?}", w.name);
        out.push_str(&format!(
            "{:<12} {:>4} {:>8} {:>9} {:>5} {:>8} {:>9} {:>8} {:>9}\n",
            w.name, s.nt, s.rt_stc, s.rt_stwc, s.nv, s.ecv_stc, s.ecv_stwc, s.ect_stc, s.ect_stwc
        ));
    }
    // Scaling check: generated programs grow the tables the way the
    // paper's real SPEC inputs do (NT in the tens to hundreds, RT > NT).
    out.push_str("\nsynthetic scaling (seeded generator):\n");
    for (label, structs, funcs) in
        [("gen-small", 8, 24), ("gen-medium", 24, 72), ("gen-large", 64, 200)]
    {
        let cfg = AstGenConfig { structs, funcs, ..AstGenConfig::default() };
        let src = rsti_workloads::generate_source(7, cfg);
        let m = rsti_frontend::compile(&src, label).expect("generator emits valid MiniC");
        let s = rsti_core::equivalence_stats(&m);
        assert_eq!(s.invariant_violation(), None, "{label}: {s:?}");
        out.push_str(&format!(
            "{:<12} {:>4} {:>8} {:>9} {:>5} {:>8} {:>9} {:>8} {:>9}\n",
            label, s.nt, s.rt_stc, s.rt_stwc, s.nv, s.ecv_stc, s.ecv_stwc, s.ect_stc, s.ect_stwc
        ));
    }
    out.push_str(
        "\nInvariants checked: RT(STWC)>=RT(STC); RT(STL)<=NV;\n\
         ECV(STC)>=ECV(STWC); ECT(STC)>=ECT(STWC). The paper's strict\n\
         equalities (ECT(STWC)=1, RT(STL)=NV) hold on alias-free programs;\n\
         address-escaped variables share their type's class (DESIGN.md).\n",
    );
    out
}

/// Renders the §6.2.2 pointer-to-pointer census.
pub fn render_pp_census() -> String {
    let mut out = String::new();
    out.push_str(
        "§6.2.2 reproduction: pointer-to-pointer site census over the SPEC\n\
         2006 proxies (paper: 7,489 sites, of which only 25 lose the\n\
         original type and need the CE/FE mechanism)\n\n",
    );
    let mut total = 0;
    let mut lost = 0;
    out.push_str(&format!("{:<12} {:>12} {:>16}\n", "BM", "pp sites", "lost-type sites"));
    for w in spec2006() {
        let m = w.module();
        let a = rsti_core::analyze(&m, Mechanism::Stwc);
        let plan = rsti_core::plan_pp(&m, &a);
        out.push_str(&format!(
            "{:<12} {:>12} {:>16}\n",
            w.name, plan.census.total_sites, plan.census.lost_type_sites
        ));
        total += plan.census.total_sites;
        lost += plan.census.lost_type_sites;
    }
    out.push_str(&format!(
        "\ntotal: {total} double-pointer sites, {lost} lose the original type\n\
         ({:.1}% — confirming the paper's 'this is a rare case': 25/7489 = 0.3%)\n",
        if total > 0 { 100.0 * lost as f64 / total as f64 } else { 0.0 }
    ));
    out
}

/// Renders the §6.3.2 PARTS-vs-RSTI nbench comparison.
pub fn render_parts_compare() -> String {
    let mut out = String::new();
    out.push_str(
        "§6.3.2 reproduction: nbench overhead, PARTS baseline vs RSTI\n\
         (paper: PARTS 19.5% mean; RSTI 1.54% / 0.52% / 2.78% for\n\
         STWC / STC / STL)\n\n",
    );
    let ws: Vec<Workload> = nbench();
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>9} {:>9}\n",
        "benchmark", "PARTS%", "STWC%", "STC%", "STL%"
    ));
    let mut parts_all = Vec::new();
    let mut rsti_all = [Vec::new(), Vec::new(), Vec::new()];
    for w in &ws {
        let m = w.proxy_module();
        let cycles = |choice: Option<Mechanism>| {
            let img = rsti_vm::Image::build(&m, choice, rsti_core::OptLevel::Cfg).0;
            let mut vm = rsti_vm::Vm::new(&img);
            vm.set_fuel(200_000_000);
            vm.run().cycles as f64
        };
        let base = cycles(None);
        let pct = |mech: Mechanism| (cycles(Some(mech)) / base - 1.0) * 100.0;
        let parts = pct(Mechanism::Parts);
        let stwc = pct(Mechanism::Stwc);
        let stc = pct(Mechanism::Stc);
        let stl = pct(Mechanism::Stl);
        out.push_str(&format!(
            "{:<18} {:>9.2} {:>9.2} {:>9.2} {:>9.2}\n",
            w.name, parts, stwc, stc, stl
        ));
        parts_all.push(parts);
        rsti_all[0].push(stwc);
        rsti_all[1].push(stc);
        rsti_all[2].push(stl);
    }
    out.push_str(&format!(
        "\nmean: PARTS {:.2}%  STWC {:.2}%  STC {:.2}%  STL {:.2}%\n",
        geomean_pct(parts_all),
        geomean_pct(rsti_all[0].clone()),
        geomean_pct(rsti_all[1].clone()),
        geomean_pct(rsti_all[2].clone()),
    ));
    out.push_str(
        "\nNote: PARTS' per-op cost is modelled at 22 cycles (non-inlined\n\
         runtime calls + spills) vs RSTI's 7 (inlined intrinsics), per the\n\
         paper's explanation of the gap (§6.3.2). The nbench proxies are\n\
         numeric-dominated, so absolute numbers stay small; the ordering\n\
         PARTS > STL > STWC > STC on the pointer-active rows is the\n\
         reproduced shape. The security gap is Table 1's.\n",
    );
    out
}

/// Renders Table 1: every attack scenario, the extras included, under
/// every defense.
pub fn render_table1() -> String {
    let mut scenarios = rsti_attacks::scenarios::all();
    scenarios.extend(rsti_attacks::scenarios::extras());
    let victims: Vec<_> = scenarios.iter().map(rsti_attacks::Victim::scenario).collect();
    rsti_attacks::render_table1(&scenarios, &rsti_attacks::run_matrix(&victims))
}

/// Renders the §7 replay surface per SPEC2006 proxy: equivalence-class
/// sizes, substitutable pairs, the mechanism recommendation, and the static
/// cost of the adaptive variant.
pub fn render_replay_surface() -> String {
    use rsti_core::{analyze, instrument, instrument_adaptive, DEFAULT_ECV_THRESHOLD};
    let mut out = String::from(
        "§7 reproduction: replay surface per SPEC2006 proxy and the\n\
         adaptive mechanism choice (paper: \"choosing the mechanism based\n\
         on the variables with the same RSTI-type\")\n\n",
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>10} {:>8} {:>12} | {:>10} {:>10} {:>10}",
        "BM", "largest", "pairs", "hot", "recommend", "STWC ops", "adapt ops", "STL ops"
    );
    for w in spec2006() {
        let m = w.module();
        let a = analyze(&m, Mechanism::Stwc);
        let s = rsti_core::replay_surface(&a, DEFAULT_ECV_THRESHOLD);
        let ops = |p: rsti_core::InstrumentedProgram| p.stats.total_pac_ops();
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>10} {:>8} {:>12} | {:>10} {:>10} {:>10}",
            w.name,
            s.largest_class,
            s.substitutable_pairs,
            s.hot_classes,
            rsti_core::recommend(&a, DEFAULT_ECV_THRESHOLD).name(),
            ops(instrument(&m, Mechanism::Stwc)),
            ops(instrument_adaptive(&m, DEFAULT_ECV_THRESHOLD)),
            ops(instrument(&m, Mechanism::Stl))
        );
    }
    let _ = writeln!(
        out,
        "\nAdaptive = STWC plus STL-style location binding on classes with\n\
         more than {DEFAULT_ECV_THRESHOLD} members. Location binding tweaks\n\
         the modifiers of existing sign/auth sites, so the static op count\n\
         stays at STWC's — large-class substitution is closed without\n\
         STL's extra argument/return re-signing."
    );
    out
}

/// Executed `(cycles, signs, auths)` of the nbench + NGINX mix, summed
/// over the suite, indexed `[level][mechanism]` in [`OptLevel::ALL`] and
/// [`MECHS`] order.
pub type OptTotals = [[(u64, u64, u64); 3]; 4];

/// The loop-heavy mix the optimizer ladder and the hotspot report run.
fn loop_mix() -> Vec<Workload> {
    nbench().into_iter().chain(nginx()).collect()
}

/// Measures [`OptTotals`] at every optimizer level.
///
/// # Errors
/// Returns the first failing workload's [`MeasureError`].
pub fn measure_opt_totals() -> Result<OptTotals, MeasureError> {
    let ws = loop_mix();
    let mut totals = [[(0, 0, 0); 3]; 4];
    for (level, row) in OptLevel::ALL.into_iter().zip(&mut totals) {
        for w in &ws {
            let r = measure_at(w, level)?;
            for (mi, t) in row.iter_mut().enumerate() {
                t.0 += r.cycles[mi];
                t.1 += r.pac_signs[mi];
                t.2 += r.pac_auths[mi];
            }
        }
    }
    Ok(totals)
}

/// The optimizer-ladder gate: `cfg` must execute strictly fewer auths than
/// `block`, and `ipo` strictly fewer than `cfg`, for every mechanism. Each
/// failure names the mechanism and the level.
pub fn ladder_failures(totals: &OptTotals) -> Vec<String> {
    let mut failures = Vec::new();
    for (mi, mech) in MECHS.iter().enumerate() {
        for li in 2..4 {
            let (auths, below) = (totals[li][mi].2, totals[li - 1][mi].2);
            if auths >= below {
                failures.push(format!(
                    "{} {}: {auths} auths, not strictly below {}'s {below}",
                    mech.name(),
                    OptLevel::ALL[li].label(),
                    OptLevel::ALL[li - 1].label()
                ));
            }
        }
    }
    failures
}

/// Renders `opt_compare.md`, the §4.7.2 / §6.3.2 optimization ablation:
/// the per-mechanism dynamic-check table of `totals` with its ladder-gate
/// status, then the staged naive → +inline → +promote → +full sweep over
/// the SPEC2006 proxies.
pub fn render_opt_compare(totals: &OptTotals) -> String {
    let mut md = String::from(
        "# Dynamic check reduction per optimizer level\n\n\
         Loop-heavy mix (nbench + NGINX proxies), executed PAC operation\n\
         counts summed over the suite. `Δauths vs block` is the extra\n\
         reduction the CFG stages (dominator elision, loop hoisting) buy\n\
         over the block-local pipeline; `Δ vs cfg` is the further relative\n\
         reduction the interprocedural level (summary-refined call kills,\n\
         boundary-resign folding, size-budgeted inlining) buys over cfg.\n\n\
         | mechanism | level | cycles | signs | auths | Δauths vs block | Δ vs cfg |\n\
         |---|---|---:|---:|---:|---:|---:|\n",
    );
    for (mi, mech) in MECHS.iter().enumerate() {
        let block_auths = totals[1][mi].2;
        let cfg_auths = totals[2][mi].2;
        for (level, row) in OptLevel::ALL.into_iter().zip(totals) {
            let (cyc, signs, auths) = row[mi];
            let delta = if matches!(level, OptLevel::Cfg | OptLevel::Ipo) {
                format!("{:+}", auths as i64 - block_auths as i64)
            } else {
                "-".to_string()
            };
            let vs_cfg = if level == OptLevel::Ipo {
                format!("{:+.1}%", (auths as f64 / cfg_auths as f64 - 1.0) * 100.0)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                md,
                "| {} | {} | {cyc} | {signs} | {auths} | {delta} | {vs_cfg} |",
                mech.name(),
                level.label()
            );
        }
    }
    let _ = writeln!(
        md,
        "\nGate: each optimizer level must execute strictly fewer auths\n\
         than the one below it (cfg < block, ipo < cfg) for every\n\
         mechanism — status: {}.\n",
        if ladder_failures(totals).is_empty() { "ok" } else { "**FAILED**" }
    );
    md.push_str(&render_staged_ablation());
    md
}

/// The staged sweep: STWC overhead over the *unoptimized* baseline as
/// each optimization is added in turn.
fn render_staged_ablation() -> String {
    fn cycles(img: &Image) -> u64 {
        let mut vm = Vm::new(img);
        vm.set_fuel(200_000_000);
        let r = vm.run();
        assert!(matches!(r.status, Status::Exited(0)), "staged ablation: {:?}", r.status);
        r.cycles
    }
    let mut md = String::from(
        "## Optimization stages (SPEC2006 proxies, RSTI-STWC)\n\n\
         STWC overhead (%) against the *unoptimized* baseline as each stage\n\
         is added — the engineering the paper credits for beating PARTS\n\
         (§6.3.2). Leaf inlining models LTO; promotion keeps authenticated\n\
         pointers in registers (§4.7.2); the full pipeline (`cfg`) adds\n\
         block-local and dominator-based elision, loop-invariant auth\n\
         hoisting, and precomputed PAC modifiers. All are sound under the §3\n\
         threat model (registers are out of the attacker's reach) and\n\
         differential-tested.\n\n\
         | benchmark | naive | +inline | +promote | +full |\n\
         |---|---:|---:|---:|---:|\n",
    );
    for w in spec2006() {
        let m0 = w.module();
        let base = cycles(&Image::baseline(&m0)) as f64;
        let pct = |p: &rsti_core::InstrumentedProgram| {
            (cycles(&Image::from_instrumented(p)) as f64 / base - 1.0) * 100.0
        };
        let naive = pct(&rsti_core::instrument(&m0, Mechanism::Stwc));
        let mut m1 = m0.clone();
        rsti_core::inline_leaf_functions(&mut m1, rsti_core::LEAF_INLINE_BUDGET);
        let mut p = rsti_core::instrument(&m1, Mechanism::Stwc);
        let inline = pct(&p);
        rsti_core::optimize::promote_single_store_slots(&mut p.module);
        let promote = pct(&p);
        let mut p = rsti_core::instrument(&m1, Mechanism::Stwc);
        rsti_core::optimize_program_at(&mut p, OptLevel::Cfg);
        let full = pct(&p);
        let _ = writeln!(
            md,
            "| {} | {naive:.2}% | {inline:.2}% | {promote:.2}% | {full:.2}% |",
            w.name
        );
    }
    md
}

/// Rows per table in [`render_hotspots`].
const HOTSPOT_TOP: usize = 15;

/// Renders `hotspots.md`: the nbench + NGINX mix under every mechanism at
/// `cfg` with attribution on, each mechanism's functions ranked by the
/// model cycles spent in checks, plus STWC's top check sites.
///
/// # Panics
/// If a workload does not exit cleanly.
pub fn render_hotspots() -> String {
    let mut md = format!(
        "# Execution hotspots — nbench + NGINX mix\n\n\
         Generated by `make_report` (deterministic: model cycles, not wall time).\n\
         Exclusive per-function cycles split into *app* (ordinary execution),\n\
         *PAC* (`pac`/`aut`/`xpac` instructions), and *pp* (`pp_*` metadata\n\
         checks); top {HOTSPOT_TOP} functions per mechanism ranked by check-cycle\n\
         share (PAC + pp). Full pipeline (`--opt cfg`).\n"
    );
    let ws = loop_mix();
    for mech in Mechanism::ALL {
        let mut rows: Vec<FuncAttr> = Vec::new();
        let mut sites: Vec<rsti_vm::SiteAttr> = Vec::new();
        for w in &ws {
            let img = Image::build(&w.proxy_module(), mech, OptLevel::Cfg).0.with_attr();
            let mut vm = Vm::new(&img);
            vm.set_fuel(200_000_000);
            let r = vm.run();
            assert!(matches!(r.status, Status::Exited(0)), "{}/{}: {:?}", w.name, mech.name(), r.status);
            let prof = r.attr.expect("attribution profile");
            for &i in &prof.ranked_funcs() {
                let f = &prof.funcs[i];
                rows.push(FuncAttr { name: format!("{}/{}", w.name, f.name), ..f.clone() });
            }
            if mech == Mechanism::Stwc {
                sites.extend(prof.sites.iter().filter(|s| s.execs > 0).cloned());
            }
        }
        let check = |f: &FuncAttr| f.pac_cycles + f.pp_cycles;
        rows.sort_by(|a, b| {
            check(b)
                .cmp(&check(a))
                .then_with(|| b.cycles.cmp(&a.cycles))
                .then_with(|| a.name.cmp(&b.name))
        });
        let tot: u64 = rows.iter().map(|f| f.cycles).sum();
        let pac: u64 = rows.iter().map(|f| f.pac_cycles).sum();
        let pp: u64 = rows.iter().map(|f| f.pp_cycles).sum();
        let pct = |x: u64| x as f64 / tot.max(1) as f64 * 100.0;
        let app = tot - pac - pp;
        let _ = writeln!(md, "\n## {}\n", mech.name());
        let _ = writeln!(
            md,
            "Mix totals: {tot} cycles — app {app} ({:.1}%), PAC {pac} ({:.1}%), pp {pp} ({:.1}%).\n",
            pct(app),
            pct(pac),
            pct(pp)
        );
        md.push_str("| function | calls | cycles | app | pac | pp | check share |\n|---|---:|---:|---:|---:|---:|---:|\n");
        for f in rows.iter().take(HOTSPOT_TOP) {
            let _ = writeln!(
                md,
                "| {} | {} | {} | {} | {} | {} | {:.1}% |",
                f.name,
                f.calls,
                f.cycles,
                f.cycles - check(f),
                f.pac_cycles,
                f.pp_cycles,
                check(f) as f64 / f.cycles.max(1) as f64 * 100.0
            );
        }
        if mech == Mechanism::Stwc {
            sites.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.site.id.cmp(&b.site.id)));
            let _ = writeln!(md, "\n### Top check sites ({})\n", mech.name());
            md.push_str("| site | kind | line | execs | cycles | auths |\n|---|---|---:|---:|---:|---:|\n");
            for s in sites.iter().take(HOTSPOT_TOP) {
                let _ = writeln!(
                    md,
                    "| {} | {} | {} | {} | {} | {} |",
                    s.site.label(),
                    s.site.kind,
                    s.site.line,
                    s.execs,
                    s.cycles,
                    s.auths
                );
            }
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspots_match_the_committed_report() {
        assert_eq!(
            render_hotspots(),
            include_str!("../../../reports/hotspots.md"),
            "reports/hotspots.md is stale: rerun make_report"
        );
    }

    #[test]
    fn ladder_gate_names_the_mechanism_and_level_that_fails() {
        // STWC none/block/cfg/ipo auths of the committed mix: the gate passes.
        let mut totals: OptTotals = [[(0, 0, 0); 3]; 4];
        for (li, auths) in [468_414, 261_050, 156_230, 30_806].into_iter().enumerate() {
            totals[li] = [(0, 0, auths); 3];
        }
        assert!(ladder_failures(&totals).is_empty());
        // STC's cfg level buys nothing over block.
        totals[2][1].2 = totals[1][1].2;
        assert_eq!(
            ladder_failures(&totals),
            ["RSTI-STC cfg: 261050 auths, not strictly below block's 261050"]
        );
    }
}
