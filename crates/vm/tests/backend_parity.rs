//! Reference accounting ≡ block pre-charge parity, as executable claims.
//!
//! One driver executes the translated ops under two accounting modes:
//! `Interp` charges, fuel-checks and commits the frame position per op;
//! `Compiled` pre-charges whole blocks and rolls back the unexecuted
//! suffix. These tests pin down that the difference stays unobservable
//! for every trap class and for the accounting: both modes must produce
//! equal [`ExecResult`]s (status, output, events, cycles, instructions,
//! PAC counters, site counts, audit records) on the same image and the
//! same attacker actions. `op_semantics.rs` pins what the ops themselves
//! do.

use rsti_core::{Mechanism, OptLevel};
use rsti_ir::{BlockId, Terminator};
use rsti_vm::{Backend, ExecBackend, ExecResult, Image, RunStop, Status, Trap, Vm};

/// Runs one image under one engine, applying `attack` at the `fire` pause
/// point when given.
fn run_one(
    img: &Image,
    exec: ExecBackend,
    fuel: u64,
    attack: Option<&dyn Fn(&mut Vm)>,
) -> ExecResult {
    let img = img.clone().with_exec(exec);
    let mut vm = Vm::new(&img);
    vm.set_fuel(fuel);
    match attack {
        None => vm.run(),
        Some(f) => {
            assert_eq!(vm.run_to_function("fire"), RunStop::Entered, "{}", exec.label());
            f(&mut vm);
            vm.finish()
        }
    }
}

/// Asserts both engines agree on an image, returns the (shared) result.
fn assert_parity(
    img: &Image,
    fuel: u64,
    attack: Option<&dyn Fn(&mut Vm)>,
    label: &str,
) -> ExecResult {
    let interp = run_one(img, ExecBackend::Interp, fuel, attack);
    let compiled = run_one(img, ExecBackend::Compiled, fuel, attack);
    assert_eq!(interp, compiled, "backend divergence: {label}");
    compiled
}

fn instrumented(src: &str, mech: Mechanism, opt: OptLevel) -> Image {
    let m = rsti_frontend::compile(src, "parity").expect("compiles");
    let mut p = rsti_core::instrument(&m, mech);
    rsti_core::optimize_program_at(&mut p, opt);
    Image::from_instrumented(&p)
}

fn baseline(src: &str) -> Image {
    let m = rsti_frontend::compile(src, "parity").expect("compiles");
    Image::baseline(&m)
}

const VICTIM: &str = r#"
    void benign() { }
    void gadget() { print_str("gadget"); }
    struct obj { long pad; void (*fp)(); };
    struct obj* g_obj;
    void fire() { g_obj->fp(); }
    int main() {
        g_obj = (struct obj*) malloc(sizeof(struct obj));
        g_obj->fp = benign;
        fire();
        return 0;
    }
"#;

/// A compute-heavy program touching arithmetic, memory, branches, calls,
/// and printing — the parity workhorse for clean runs.
const MIXED: &str = r#"
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() {
        int* buf = (int*) malloc(64 * 4);
        int i = 0;
        while (i < 64) {
            buf[i] = i * 3 - 1;
            i = i + 1;
        }
        long sum = 0;
        i = 0;
        while (i < 64) {
            sum = sum + buf[i];
            i = i + 1;
        }
        print_int(sum);
        print_int(fib(12));
        double x = 1.5;
        double y = x * 4.0 + 0.25;
        print_int((int) y);
        free(buf);
        return 0;
    }
"#;

// ---- trap-class parity table ----------------------------------------------

/// PAC violation parity, per mechanism, both enforcement backends: the
/// attacker swaps the signed function pointer for a raw gadget address at
/// the `fire` pause point; every configuration must diverge-free report
/// the same `PacAuthFailure` (or `PpAuthFailure`), same audit record,
/// same line, same counters.
#[test]
fn pac_violation_parity_per_mechanism() {
    let corrupt: &dyn Fn(&mut Vm) = &|vm| {
        let obj = vm.heap_live()[0].0;
        let gadget = vm.func_addr("gadget").unwrap();
        vm.attacker_write_u64(obj + 8, gadget).unwrap();
    };
    for mech in Mechanism::ALL {
        for opt in OptLevel::ALL {
            for enforce in [Backend::PacInPointer, Backend::MacTable] {
                let img = instrumented(VICTIM, mech, opt).with_backend(enforce);
                let label = format!("{mech:?}/{opt:?}/{enforce:?}");
                let r = assert_parity(&img, 10_000_000, Some(corrupt), &label);
                assert!(
                    matches!(
                        r.status,
                        Status::Trapped(
                            Trap::PacAuthFailure { .. }
                                | Trap::PpAuthFailure { .. }
                                | Trap::NonCanonicalCall { .. }
                        )
                    ),
                    "{label}: corruption not detected: {:?}",
                    r.status
                );
                assert_eq!(r.audit.len(), usize::from(r.status != Status::Exited(0) && matches!(r.status, Status::Trapped(ref t) if t.is_detection())), "{label}");
            }
        }
    }
}

/// StackOverflow parity: unbounded recursion overflows the frame limit
/// identically under both engines.
#[test]
fn stack_overflow_parity() {
    let src = r#"
        int down(int n) { return down(n + 1); }
        int main() { return down(0); }
    "#;
    let r = assert_parity(&baseline(src), 50_000_000, None, "stack-overflow");
    assert_eq!(
        std::mem::discriminant(match &r.status {
            Status::Trapped(t) => t,
            s => panic!("expected trap, got {s:?}"),
        }),
        std::mem::discriminant(&Trap::StackOverflow)
    );
}

/// Alloca-exhaustion StackOverflow parity (the stack-segment variant).
#[test]
fn alloca_overflow_parity() {
    let src = r#"
        int grow(int n) {
            long slab[4096];
            slab[0] = n;
            return grow(n + (int) slab[0] - n + 1);
        }
        int main() { return grow(0); }
    "#;
    let r = assert_parity(&baseline(src), 50_000_000, None, "alloca-overflow");
    assert!(
        matches!(r.status, Status::Trapped(Trap::StackOverflow)),
        "{:?}",
        r.status
    );
}

/// HeapExhausted parity: a malloc loop drains the arena identically.
#[test]
fn heap_exhausted_parity() {
    let src = r#"
        int main() {
            int i = 0;
            while (i < 100000) {
                char* p = (char*) malloc(65536);
                p[0] = 1;
                i = i + 1;
            }
            return 0;
        }
    "#;
    let r = assert_parity(&baseline(src), 50_000_000, None, "heap-exhausted");
    assert!(
        matches!(r.status, Status::Trapped(Trap::HeapExhausted)),
        "{:?}",
        r.status
    );
}

/// Segment-error parity: a store through a null pointer faults with the
/// same `Mem` trap (function name included) under both engines.
#[test]
fn null_deref_parity() {
    let src = r#"
        int main() {
            int* p = null;
            *p = 7;
            return 0;
        }
    "#;
    let r = assert_parity(&baseline(src), 1_000_000, None, "null-deref");
    assert!(matches!(r.status, Status::Trapped(Trap::Mem { .. })), "{:?}", r.status);
}

/// Division-by-zero parity (trap carries the function name).
#[test]
fn div_by_zero_parity() {
    let src = r#"
        int main() {
            int d = 4;
            int z = d - 4;
            return 12 / z;
        }
    "#;
    let r = assert_parity(&baseline(src), 1_000_000, None, "div-zero");
    assert!(matches!(r.status, Status::Trapped(Trap::DivByZero { .. })), "{:?}", r.status);
}

/// BadProgram parity: reaching `unreachable` (here: a terminator swapped
/// in post-compile) renders the identical message under both engines.
#[test]
fn unreachable_parity() {
    let mut m = rsti_frontend::compile("int main() { return 0; }", "parity").unwrap();
    let main = m.func_by_name("main").unwrap();
    m.funcs[main.0 as usize].blocks[0].term = Terminator::Unreachable;
    let r = assert_parity(&Image::baseline(&m), 1_000_000, None, "unreachable");
    assert!(
        matches!(&r.status, Status::Trapped(Trap::BadProgram(s)) if s.contains("unreachable")),
        "{:?}",
        r.status
    );
}

/// BadProgram parity: a branch to a missing block fails the image's id
/// check at load with the same message under both engines.
#[test]
fn missing_block_parity() {
    let mut m = rsti_frontend::compile("int main() { return 0; }", "parity").unwrap();
    let main = m.func_by_name("main").unwrap();
    m.funcs[main.0 as usize].blocks[0].term = Terminator::Br(BlockId(99));
    let r = assert_parity(&Image::baseline(&m), 1_000_000, None, "missing-block");
    assert!(
        matches!(&r.status, Status::Trapped(Trap::BadProgram(s)) if s.contains("unknown block")),
        "{:?}",
        r.status
    );
}

// ---- accounting parity -----------------------------------------------------

/// The block entry/exit charge is backend-neutral: clean runs report
/// identical `cycles` (the `cycle_model_total`) and `insts` across
/// engines, for every mechanism × opt level — the regression test for
/// the shared `charge_block_transfer` site.
#[test]
fn cycle_model_total_is_backend_neutral() {
    for src in [MIXED, VICTIM] {
        let b = baseline(src);
        assert_parity(&b, 50_000_000, None, "baseline accounting");
        for mech in Mechanism::ALL {
            for opt in OptLevel::ALL {
                let img = instrumented(src, mech, opt);
                let label = format!("accounting {mech:?}/{opt:?}");
                let r = assert_parity(&img, 50_000_000, None, &label);
                assert!(r.status.is_exit(), "{label}: {:?}", r.status);
                assert!(r.cycles > 0 && r.insts > 0, "{label}");
            }
        }
    }
}

/// Fuel exhaustion is charge-exact: cutting the budget to an arbitrary
/// point mid-run leaves both engines with the same instruction and cycle
/// totals — the compiled engine's pre-charge/rollback bookkeeping cannot
/// drift from per-op charging even when the budget expires mid-block.
#[test]
fn fuel_exhaustion_accounting_parity() {
    let img = baseline(MIXED);
    for fuel in [1, 7, 50, 333, 1234, 2500] {
        let r = assert_parity(&img, fuel, None, &format!("fuel={fuel}"));
        assert!(
            matches!(r.status, Status::Trapped(Trap::FuelExhausted)),
            "fuel={fuel}: {:?}",
            r.status
        );
        assert_eq!(r.insts, fuel, "fuel={fuel}: exhaustion must stop exactly at the budget");
    }
}

/// Watchpoint pause/resume works identically: pausing at `fire`, reading
/// attacker-visible state, and finishing produces the same result — the
/// compiled driver's single-block mode must see every block entry.
#[test]
fn watchpoint_resume_parity() {
    let img = instrumented(VICTIM, Mechanism::Stwc, OptLevel::Cfg);
    let benign: &dyn Fn(&mut Vm) = &|vm| {
        // Pause, look, touch nothing: the run must stay clean.
        assert!(!vm.heap_live().is_empty());
    };
    let r = assert_parity(&img, 10_000_000, Some(benign), "watch-resume");
    assert_eq!(r.status, Status::Exited(0));
}

/// MacTable clean-run parity: sign/auth round trips through the shadow
/// MAC table leave identical counters.
#[test]
fn mac_table_clean_run_parity() {
    for mech in Mechanism::ALL {
        let img = instrumented(VICTIM, mech, OptLevel::BlockLocal).with_backend(Backend::MacTable);
        let r = assert_parity(&img, 10_000_000, None, &format!("mac-clean {mech:?}"));
        assert_eq!(r.status, Status::Exited(0), "{mech:?}");
    }
}

/// The compiled engine reports the same per-site dynamic PA profile.
#[test]
fn site_count_parity_under_stl() {
    let img = instrumented(VICTIM, Mechanism::Stl, OptLevel::None);
    let r = assert_parity(&img, 10_000_000, None, "stl-sites");
    assert!(r.site_counts.iter().sum::<u64>() > 0, "STL run exercised no PA sites");
}

// ---- violation forensics parity -------------------------------------------

/// Audit records agree field by field — not just on the trap message —
/// between the engines, for every mechanism × enforcement backend. The
/// `ExecResult` equality in `assert_parity` subsumes this, but spelling
/// each field out keeps a divergence diagnosable (and pins the claim even
/// if `ExecResult`'s derive ever changes).
#[test]
fn audit_record_full_field_parity() {
    let corrupt: &dyn Fn(&mut Vm) = &|vm| {
        let obj = vm.heap_live()[0].0;
        let gadget = vm.func_addr("gadget").unwrap();
        vm.attacker_write_u64(obj + 8, gadget).unwrap();
    };
    for mech in Mechanism::ALL {
        for enforce in [Backend::PacInPointer, Backend::MacTable] {
            let img = instrumented(VICTIM, mech, OptLevel::Cfg).with_backend(enforce);
            let label = format!("{mech:?}/{enforce:?}");
            let i = run_one(&img, ExecBackend::Interp, 10_000_000, Some(corrupt));
            let c = run_one(&img, ExecBackend::Compiled, 10_000_000, Some(corrupt));
            assert_eq!(i.audit.len(), c.audit.len(), "{label}: audit count");
            for (a, b) in i.audit.iter().zip(&c.audit) {
                assert_eq!(a.mechanism, b.mechanism, "{label}: mechanism");
                assert_eq!(a.modifier, b.modifier, "{label}: modifier");
                assert_eq!(a.site, b.site, "{label}: site");
                assert_eq!(a.func, b.func, "{label}: func");
                assert_eq!(a.line, b.line, "{label}: line");
                assert_eq!(a.inst, b.inst, "{label}: inst");
                assert_eq!(a.detail, b.detail, "{label}: detail");
            }
        }
    }
}

/// With the flight recorder armed, an RSTI detection synthesizes an
/// incident, and the whole incident — lineage, event window, model-cycle
/// timestamps — is bit-identical across engines (it rides on the
/// `ExecResult` equality in `assert_parity`). Non-RSTI traps (e.g. a
/// non-canonical call under a PAC-bit-breaking corruption) produce none.
#[test]
fn incident_parity_per_mechanism() {
    let corrupt: &dyn Fn(&mut Vm) = &|vm| {
        let obj = vm.heap_live()[0].0;
        let gadget = vm.func_addr("gadget").unwrap();
        vm.attacker_write_u64(obj + 8, gadget).unwrap();
    };
    let mut incidents = 0;
    for mech in Mechanism::ALL {
        for opt in OptLevel::ALL {
            for enforce in [Backend::PacInPointer, Backend::MacTable] {
                let img = instrumented(VICTIM, mech, opt)
                    .with_backend(enforce)
                    .with_record();
                let label = format!("{mech:?}/{opt:?}/{enforce:?}");
                let r = assert_parity(&img, 10_000_000, Some(corrupt), &label);
                let detected =
                    matches!(&r.status, Status::Trapped(t) if t.is_detection());
                assert_eq!(
                    r.incident.is_some(),
                    detected,
                    "{label}: incident iff RSTI detection"
                );
                let Some(inc) = &r.incident else { continue };
                incidents += 1;
                assert_eq!(inc.mechanism, mech.name(), "{label}");
                assert!(
                    inc.check_site.starts_with("fire:"),
                    "{label}: failing check site names the victim function, got {:?}",
                    inc.check_site
                );
                assert!(!inc.window.is_empty(), "{label}: event window present");
                assert_eq!(
                    inc.window.last().map(|e| e.kind.as_str()),
                    Some("auth_fail"),
                    "{label}: window closes with the failing auth"
                );
                // The raw overwrite planted a never-signed value: lineage
                // must come up empty and the verdict must say so.
                assert!(inc.lineage.is_none(), "{label}: raw write has no sign lineage");
                assert!(inc.verdict().contains("never signed"), "{label}: {}", inc.verdict());
            }
        }
    }
    assert!(incidents > 0, "no configuration produced an incident");
}

/// Recorder inertness: with `--record` off the result — cycles, insts,
/// counters, audit — is bit-identical to a build that never arms the
/// recorder, under both engines (the PR 7 attr-off discipline).
#[test]
fn recorder_off_is_inert() {
    for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
        let plain = instrumented(MIXED, Mechanism::Stwc, OptLevel::Cfg).with_exec(exec);
        let armed = plain.clone().with_record();
        let off = Vm::new(&plain).run();
        let on = Vm::new(&armed).run();
        assert_eq!(off.status, on.status, "{}", exec.label());
        assert_eq!(off.output, on.output, "{}", exec.label());
        assert_eq!(off.cycles, on.cycles, "{}: recorder must not change the cycle model", exec.label());
        assert_eq!(off.insts, on.insts, "{}", exec.label());
        assert_eq!(off.pac_signs, on.pac_signs, "{}", exec.label());
        assert_eq!(off.pac_auths, on.pac_auths, "{}", exec.label());
        assert_eq!(off.site_counts, on.site_counts, "{}", exec.label());
        assert_eq!(off.audit, on.audit, "{}", exec.label());
        // A clean run never synthesizes an incident, armed or not.
        assert_eq!(off.incident, None, "{}", exec.label());
        assert_eq!(on.incident, None, "{}", exec.label());
    }
}

/// A replayed (previously signed, wrong-context) pointer resolves to its
/// sign site: the attacker copies the signed bits from one slot over
/// another, and the incident's lineage names the original sign event
/// while the verdict calls out the modifier mismatch — identically under
/// both engines.
#[test]
fn replay_incident_carries_sign_lineage() {
    let src = r#"
        struct alpha { long v; };
        struct beta { long v; };
        struct alpha* ga;
        struct beta* gb;
        long fire() { return ga->v + gb->v; }
        int main() {
            ga = (struct alpha*) malloc(sizeof(struct alpha));
            gb = (struct beta*) malloc(sizeof(struct beta));
            ga->v = 1;
            gb->v = 2;
            return (int) fire();
        }
    "#;
    let replay: &dyn Fn(&mut Vm) = &|vm| {
        // Substitute the signed beta pointer into alpha's slot: a replay
        // of a legitimately signed value into the wrong context.
        let src_a = vm.global_addr("gb").unwrap();
        let dst_a = vm.global_addr("ga").unwrap();
        let bytes = vm.attacker_read(src_a, 8).unwrap();
        vm.attacker_write(dst_a, &bytes).unwrap();
    };
    let img = instrumented(src, Mechanism::Stwc, OptLevel::None).with_record();
    let r = assert_parity(&img, 10_000_000, Some(replay), "replay-lineage");
    assert!(
        matches!(&r.status, Status::Trapped(t) if t.is_detection()),
        "{:?}",
        r.status
    );
    let inc = r.incident.expect("detection synthesizes an incident");
    let lin = inc.lineage.as_ref().expect("replayed value was legitimately signed");
    assert_eq!(lin.func, "main", "signed while main initialized the globals");
    assert!(lin.cycle < inc.cycle, "sign precedes the failing auth");
    assert_ne!(lin.modifier, inc.presented_modifier, "cross-type replay");
    assert!(inc.verdict().contains("modifier mismatch"), "{}", inc.verdict());
}
