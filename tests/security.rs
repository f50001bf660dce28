//! Security-focused integration tests: the threat model end to end —
//! forgery bounds, key isolation, replay limits, and the full Table 1/2
//! matrices as executable claims.

use rsti_core::Mechanism;
use rsti_vm::{Image, RunStop, Status, Trap, Vm};

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

fn instrumented_image(mech: Mechanism) -> Image {
    let m = rsti_frontend::compile(VICTIM, "victim").unwrap();
    Image::from_instrumented(&rsti_core::instrument(&m, mech))
}

/// An attacker who guesses PAC values succeeds with probability ≈ 2^-8
/// (8 PAC bits under TBI). Empirically verify the forgery bound: over 64
/// guess attempts, a large majority must fail.
#[test]
fn pac_forgery_is_probabilistically_bounded() {
    let img = instrumented_image(Mechanism::Stwc);
    let mut hits = 0;
    let attempts = 64;
    for guess in 0..attempts {
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
        let obj = vm.heap_live()[0].0;
        let gadget = vm.func_addr("gadget").unwrap();
        // Forge: plant the gadget address with a guessed PAC in bits 48..56.
        let forged = gadget | (guess << 48);
        vm.attacker_write_u64(obj + 8, forged).unwrap();
        let r = vm.finish();
        if r.output.iter().any(|o| o == "gadget") {
            hits += 1;
        }
    }
    // Expected hits ≈ 64/256 < 1; allow a little slack for the keyed PRF.
    assert!(hits <= 3, "{hits}/{attempts} forgeries succeeded — PAC too weak");
}

/// PACs are bound to the process keys: a pointer signed under one key
/// bank replayed into a process with fresh keys fails.
#[test]
fn signed_pointers_do_not_transfer_across_key_banks() {
    let m = rsti_frontend::compile(VICTIM, "victim").unwrap();
    let prog = rsti_core::instrument(&m, Mechanism::Stwc);

    // Process 1: capture the signed fp value from memory.
    let img1 = Image::from_instrumented(&prog);
    let mut vm1 = Vm::new(&img1);
    assert_eq!(vm1.run_to_function("fire"), RunStop::Entered);
    let signed = {
        let obj = vm1.heap_live()[0].0;
        u64::from_le_bytes(vm1.attacker_read(obj + 8, 8).unwrap().try_into().unwrap())
    };
    assert_ne!(signed & 0x00FF_0000_0000_0000, 0, "pointer carries a PAC");

    // Process 2: fresh random keys; replay the captured value.
    let mut rng = rsti_rng::Rng64::seed_from_u64(99);
    let img2 = Image::from_instrumented(&prog).with_keys(rsti_pac::PacKeys::random(&mut rng));
    let mut vm2 = Vm::new(&img2);
    assert_eq!(vm2.run_to_function("fire"), RunStop::Entered);
    let obj = vm2.heap_live()[0].0;
    vm2.attacker_write_u64(obj + 8, signed).unwrap();
    let r = vm2.finish();
    assert!(
        matches!(&r.status, Status::Trapped(t) if t.is_detection()),
        "cross-process replay must fail: {:?}",
        r.status
    );
}

/// Within one process, replaying the *same slot's own* signed value is a
/// no-op (idempotent corruption) — RSTI only promises intent, not
/// freshness at the same location.
#[test]
fn replaying_a_slots_own_value_is_benign() {
    let img = instrumented_image(Mechanism::Stl);
    let mut vm = Vm::new(&img);
    assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
    let obj = vm.heap_live()[0].0;
    let bytes = vm.attacker_read(obj + 8, 8).unwrap();
    vm.attacker_write(obj + 8, &bytes).unwrap();
    let r = vm.finish();
    assert_eq!(r.status, Status::Exited(0), "{:?}", r.status);
}

/// Null-pointer planting: writing zero into a signed slot is caught (a
/// raw zero has no PAC; legitimate nulls are signed too).
#[test]
fn planted_null_is_detected() {
    let img = instrumented_image(Mechanism::Stwc);
    let mut vm = Vm::new(&img);
    assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
    let obj = vm.heap_live()[0].0;
    vm.attacker_write_u64(obj + 8, 0).unwrap();
    let r = vm.finish();
    match &r.status {
        Status::Trapped(t) if t.is_detection() => {}
        // A zero PAC can collide with the true PAC of null (p = 2^-8);
        // with the fixed test keys it does not.
        other => panic!("expected detection, got {other:?}"),
    }
}

/// Partial overwrite: corrupting only the low bytes of a signed pointer
/// (changing the target while keeping the PAC) still fails, because the
/// PAC covers the address bits.
#[test]
fn partial_pointer_overwrite_is_detected() {
    let img = instrumented_image(Mechanism::Stwc);
    let mut vm = Vm::new(&img);
    assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
    let obj = vm.heap_live()[0].0;
    let gadget = vm.func_addr("gadget").unwrap();
    // Overwrite only the low 6 bytes, preserving the PAC byte.
    vm.attacker_write(obj + 8, &gadget.to_le_bytes()[..6]).unwrap();
    let r = vm.finish();
    assert!(
        matches!(&r.status, Status::Trapped(t) if t.is_detection()),
        "{:?}",
        r.status
    );
}

/// The full Table 1 and Table 2 matrices hold as a single assertion each
/// (the fine-grained versions live in `rsti-attacks`' unit tests).
#[test]
fn table1_and_table2_matrices() {
    let scenarios = rsti_attacks::scenarios::all();
    let victims: Vec<_> = scenarios.iter().map(rsti_attacks::Victim::scenario).collect();
    let matrix = rsti_attacks::run_matrix(&victims);
    for row in &matrix {
        // Column 0 = no defense: all hijacked.
        assert_eq!(row.verdicts[0], rsti_attacks::Verdict::PayloadExecuted, "{}", row.id);
        // Columns 2..5 = STC/STWC/STL: all detected.
        for v in &row.verdicts[2..] {
            assert!(matches!(v, rsti_attacks::Verdict::Detected(_)), "{}: {v:?}", row.id);
        }
    }
    let probes = rsti_attacks::capability::all_probes();
    let victims: Vec<_> = probes.iter().map(rsti_attacks::Victim::probe).collect();
    let cap = rsti_attacks::run_matrix(&victims);
    // STL detects even same-RSTI-type substitution (its Table 2 column).
    let same = cap.iter().find(|r| r.id == "subst-same-rsti-type").unwrap();
    let stl = &same.verdicts[4];
    assert!(matches!(stl, rsti_attacks::Verdict::Detected(_)), "{stl:?}");
}

/// The VM's DEP model: indirect calls to data addresses trap.
#[test]
fn dep_calls_into_data_trap() {
    let img = instrumented_image(Mechanism::Stwc);
    let mut vm = Vm::new(&img);
    assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
    let obj = vm.heap_live()[0].0;
    // Point the callback at the heap itself ("injected code").
    vm.attacker_write_u64(obj + 8, obj).unwrap();
    let r = vm.finish();
    match &r.status {
        // Either the auth catches it (instrumented load) ...
        Status::Trapped(t) if t.is_detection() => {}
        // ... or, were it to slip through, the call itself must trap.
        Status::Trapped(Trap::CallNonFunction { .. }) => {}
        other => panic!("{other:?}"),
    }
}
