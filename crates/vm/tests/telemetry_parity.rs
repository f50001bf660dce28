//! Opclass counting under telemetry: block pre-charge ≡ per-op reference.
//!
//! With the global collector on, the fast path counts opcode classes per
//! block (the translated per-class totals plus the terminator's branch,
//! rolled back for the unexecuted suffix) instead of dropping to the
//! per-op loop. These tests hold those counts to the per-op reference
//! accounting on clean runs, call resumes, traps and fuel exhaustion.
//!
//! The collector switch is process-global and sampled when a VM loads,
//! so these tests live in their own test binary: no test that expects
//! telemetry off shares the process.

use rsti_core::{Mechanism, OptLevel};
use rsti_vm::{ExecBackend, ExecResult, Image, RunStop, Status, Trap, Vm};

/// A mix of every opcode class: arithmetic, memory, calls (each one a
/// mid-block transfer and a resume), PAC ops, branches and printing.
const MIXED: &str = r#"
    struct node { long v; struct node* next; };
    int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    int main() {
        struct node* head = null;
        int i = 0;
        while (i < 40) {
            struct node* n = (struct node*) malloc(sizeof(struct node));
            n->v = i * 3 - 1;
            n->next = head;
            head = n;
            i = i + 1;
        }
        long sum = 0;
        while (head != null) {
            sum = sum + head->v;
            struct node* dead = head;
            head = head->next;
            free(dead);
        }
        print_int(sum);
        print_int(fib(11));
        double x = 1.5;
        print_int((int) (x * 4.0 + 0.25));
        return 0;
    }
"#;

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

fn image(src: &str, mech: Option<Mechanism>, opt: OptLevel) -> Image {
    let m = rsti_frontend::compile(src, "telemetry").expect("compiles");
    Image::build(&m, mech, opt).0
}

fn run(img: &Image, exec: ExecBackend, fuel: u64, attack: bool) -> ExecResult {
    rsti_telemetry::global().enable();
    let img = img.clone().with_exec(exec);
    let mut vm = Vm::new(&img);
    vm.set_fuel(fuel);
    if !attack {
        return vm.run();
    }
    assert_eq!(vm.run_to_function("fire"), RunStop::Entered);
    let obj = vm.heap_live()[0].0;
    let gadget = vm.func_addr("gadget").unwrap();
    vm.attacker_write_u64(obj + 8, gadget).unwrap();
    vm.finish()
}

/// Both modes agree on the whole result, opclass counts included, and
/// every executed op (terminators too) lands in exactly one class.
fn assert_parity(img: &Image, fuel: u64, attack: bool, label: &str) -> ExecResult {
    let reference = run(img, ExecBackend::Interp, fuel, attack);
    let fast = run(img, ExecBackend::Compiled, fuel, attack);
    assert_eq!(reference, fast, "{label}");
    assert_eq!(
        fast.opclass_counts.iter().sum::<u64>(),
        fast.insts,
        "{label}"
    );
    fast
}

#[test]
fn opclass_counts_match_per_op_counting_on_clean_runs() {
    for mech in [
        None,
        Some(Mechanism::Stwc),
        Some(Mechanism::Stc),
        Some(Mechanism::Stl),
    ] {
        for opt in OptLevel::ALL {
            let img = image(MIXED, mech, opt);
            let r = assert_parity(&img, 10_000_000, false, &format!("{mech:?}/{opt:?}"));
            assert_eq!(r.status, Status::Exited(0));
            assert!(
                r.opclass_counts.iter().all(|&c| c > 0) || mech.is_none(),
                "{r:?}"
            );
        }
    }
}

#[test]
fn opclass_counts_match_when_a_trap_rolls_back_the_block() {
    for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
        let img = image(VICTIM, Some(mech), OptLevel::Cfg);
        let r = assert_parity(&img, 10_000_000, true, &format!("{mech:?}"));
        assert!(
            matches!(&r.status, Status::Trapped(t) if t.is_detection()),
            "{:?}",
            r.status
        );
    }
}

#[test]
fn opclass_counts_match_when_fuel_runs_out_mid_block() {
    let img = image(MIXED, Some(Mechanism::Stwc), OptLevel::Cfg);
    for fuel in [1, 7, 50, 333, 1234, 2500] {
        let r = assert_parity(&img, fuel, false, &format!("fuel={fuel}"));
        assert_eq!(
            r.status,
            Status::Trapped(Trap::FuelExhausted),
            "fuel={fuel}"
        );
    }
}
