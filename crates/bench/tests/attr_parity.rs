//! Attribution-profiler parity and inertness on the real workload mix.
//!
//! The acceptance bar for the profiler is twofold. First, *parity*: the
//! block pre-charge, which derives attribution from block-run counts, must
//! produce the **identical** profile — per-function cycles/insts/auths,
//! per-site stats, histograms, and folded call-path samples — to the
//! per-op reference accounting, on the nbench + NGINX mix and on
//! `samples/dispatcher.mc`. Second, *inertness*: with attribution off (the
//! default), runs are bit-identical to what they were before the profiler
//! existed, and turning it on never changes a verdict, an output line, or
//! a deterministic total — it only observes.

use rsti_core::{MechChoice, Mechanism, OptLevel};
use rsti_vm::{ExecBackend, Image, Status, Vm};

/// Baseline + STWC images for `samples/dispatcher.mc` (the program CI's
/// `rsti profile --attr` smoke exports) and every workload in the mix at
/// `level`, through the build recipe.
fn mix_images(level: OptLevel) -> Vec<(String, Image)> {
    let mut imgs = Vec::new();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../samples/dispatcher.mc");
    let sample = rsti_frontend::compile(&std::fs::read_to_string(path).unwrap(), path).unwrap();
    let ws: Vec<_> = rsti_workloads::nbench().into_iter().chain(rsti_workloads::nginx()).collect();
    let mix = ws.iter().map(|w| (w.name, w.proxy_module()));
    for (name, m) in [("dispatcher.mc", sample)].into_iter().chain(mix) {
        for choice in [MechChoice::Baseline, MechChoice::Fixed(Mechanism::Stwc)] {
            let img = Image::build(&m, choice, level).0;
            imgs.push((format!("{name}/{}", choice.label()), img));
        }
    }
    imgs
}

fn run(img: &Image) -> rsti_vm::ExecResult {
    let mut vm = Vm::new(img);
    vm.set_fuel(200_000_000);
    vm.run()
}

/// Per-function cycles/insts/auths, per-site stats, inclusive histograms,
/// and sampled call paths are identical between the two accounting modes
/// on the full mix.
#[test]
fn attr_profiles_identical_across_engines() {
    assert_attr_parity(OptLevel::Cfg);
}

/// The same folded-stack bit-identity under `--opt ipo --attr`: the
/// interprocedural passes (summary kills, resign folding, inlining) remap
/// check-site ids by final-module scan order, so both engines must still
/// agree on every site stat and every sampled call path.
#[test]
fn attr_profiles_identical_across_engines_at_ipo() {
    assert_attr_parity(OptLevel::Ipo);
}

fn assert_attr_parity(level: OptLevel) {
    for (name, img) in mix_images(level) {
        // A small sampling period exercises the sampler on every workload.
        let interp = img.clone().with_attr_sampling(512).with_exec(ExecBackend::Interp);
        let compiled = interp.clone().with_exec(ExecBackend::Compiled);
        compiled.precompile();
        let ri = run(&interp);
        let rc = run(&compiled);
        assert!(matches!(ri.status, Status::Exited(0)), "{name}: {:?}", ri.status);
        assert_eq!(ri.status, rc.status, "{name}: status diverges");
        assert_eq!(ri.cycles, rc.cycles, "{name}: cycle totals diverge");
        assert_eq!(ri.insts, rc.insts, "{name}: instruction totals diverge");
        assert_eq!(ri.pac_auths, rc.pac_auths, "{name}: auth totals diverge");
        let (pi, pc) = (ri.attr.expect("interp attr"), rc.attr.expect("compiled attr"));
        // Spot-check the load-bearing slices first for a readable failure…
        for (fi, fc) in pi.funcs.iter().zip(pc.funcs.iter()) {
            assert_eq!(fi.cycles, fc.cycles, "{name}: func {} cycles", fi.name);
            assert_eq!(fi.insts, fc.insts, "{name}: func {} insts", fi.name);
            assert_eq!(fi.pac_auths, fc.pac_auths, "{name}: func {} auths", fi.name);
        }
        for (si, sc) in pi.sites.iter().zip(pc.sites.iter()) {
            assert_eq!(si, sc, "{name}: site {} diverges", si.site.label());
        }
        // …then require the whole profile equal, folded stacks included.
        assert_eq!(pi, pc, "{name}: attribution profiles diverge");
        assert!(pi.samples > 0, "{name}: sampler never fired");
    }
}

/// Attribution is observation-only: enabling it changes no verdict, no
/// output, and no deterministic total, under either engine.
#[test]
fn attr_is_inert_on_verdicts_and_totals() {
    for (name, img) in mix_images(OptLevel::Cfg) {
        for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
            let off = img.clone().with_exec(exec);
            let on = off.clone().with_attr();
            off.precompile();
            on.precompile();
            let (roff, ron) = (run(&off), run(&on));
            assert!(roff.attr.is_none(), "{name}: attr-off run produced a profile");
            assert!(ron.attr.is_some(), "{name}: attr-on run lost its profile");
            assert_eq!(roff.status, ron.status, "{name}/{exec:?}: status changed");
            assert_eq!(roff.output, ron.output, "{name}/{exec:?}: output changed");
            assert_eq!(roff.cycles, ron.cycles, "{name}/{exec:?}: cycles changed");
            assert_eq!(roff.insts, ron.insts, "{name}/{exec:?}: insts changed");
            assert_eq!(roff.pac_signs, ron.pac_signs, "{name}/{exec:?}: signs changed");
            assert_eq!(roff.pac_auths, ron.pac_auths, "{name}/{exec:?}: auths changed");
            assert_eq!(roff.site_counts, ron.site_counts, "{name}/{exec:?}: site counts changed");
            assert_eq!(roff.audit, ron.audit, "{name}/{exec:?}: audit records changed");
        }
    }
}

/// The flight recorder is observation-only too: arming it on the real mix
/// changes no verdict, no output, and no deterministic total under either
/// engine, and clean runs synthesize no incident.
#[test]
fn recorder_is_inert_on_verdicts_and_totals() {
    for (name, img) in mix_images(OptLevel::Cfg) {
        for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
            let off = img.clone().with_exec(exec);
            let on = off.clone().with_record();
            off.precompile();
            on.precompile();
            let (roff, ron) = (run(&off), run(&on));
            assert!(roff.incident.is_none(), "{name}: unarmed run produced an incident");
            assert!(ron.incident.is_none(), "{name}: clean recorded run produced an incident");
            assert_eq!(roff.status, ron.status, "{name}/{exec:?}: status changed");
            assert_eq!(roff.output, ron.output, "{name}/{exec:?}: output changed");
            assert_eq!(roff.cycles, ron.cycles, "{name}/{exec:?}: cycles changed");
            assert_eq!(roff.insts, ron.insts, "{name}/{exec:?}: insts changed");
            assert_eq!(roff.pac_signs, ron.pac_signs, "{name}/{exec:?}: signs changed");
            assert_eq!(roff.pac_auths, ron.pac_auths, "{name}/{exec:?}: auths changed");
            assert_eq!(roff.site_counts, ron.site_counts, "{name}/{exec:?}: site counts changed");
            assert_eq!(roff.audit, ron.audit, "{name}/{exec:?}: audit records changed");
        }
    }
}

/// The profile's accounting is internally consistent: exclusive
/// per-function cycles and insts sum to the run totals, and per-site auth
/// counts sum to the run's auth total.
#[test]
fn attr_totals_are_conserved() {
    for (name, img) in mix_images(OptLevel::Cfg) {
        let img = img.with_attr().with_exec(ExecBackend::Interp);
        let r = run(&img);
        let p = r.attr.expect("attr profile");
        let fcycles: u64 = p.funcs.iter().map(|f| f.cycles).sum();
        let finsts: u64 = p.funcs.iter().map(|f| f.insts).sum();
        let sauths: u64 = p.sites.iter().map(|s| s.auths).sum();
        assert_eq!(fcycles, r.cycles, "{name}: per-func cycles don't sum to total");
        assert_eq!(finsts, r.insts, "{name}: per-func insts don't sum to total");
        assert_eq!(sauths, r.pac_auths, "{name}: per-site auths don't sum to total");
    }
}
