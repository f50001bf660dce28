//! `Vm::run_to_function` pauses by source scope: at the entry of any copy
//! of the named function's body, whether the optimizer inlined that copy
//! into a caller or left it a function of its own.

use rsti_core::{optimize_module, OptLevel};
use rsti_ir::{Inst, Module};
use rsti_vm::{ExecBackend, Image, RunStop, Status, Trap, Vm};

/// `callee` is inlined into `main` at `ipo` (twice), but `big` is past the
/// inliner's caller-growth cap, so its call stays a real call. `callee`
/// has a second block (the `if`) and inlines `note` itself, so a
/// continuation of `callee`'s scope follows a block of another scope.
/// `trace` records the activations: each appends its `k`, `big` appends 5.
fn source() -> String {
    let pad: String = (0..1500).map(|i| format!("pad = pad + {i};\n")).collect();
    format!(
        r#"
        long trace;
        long notes;
        long pad;
        void note() {{ notes = notes + 1; }}
        void callee(long k) {{
            trace = trace * 10 + k;
            note();
            if (k > 1) {{ notes = notes + 10; }}
        }}
        void big() {{
            {pad}
            trace = trace * 10 + 5;
            callee(2);
        }}
        int main() {{
            callee(1);
            big();
            callee(3);
            return 0;
        }}
    "#
    )
}

fn calls_to(m: &Module, caller: &str, callee: &str) -> usize {
    let (caller, callee) = (m.func_by_name(caller).unwrap(), m.func_by_name(callee).unwrap());
    m.func(caller)
        .insts()
        .filter(|n| matches!(n.inst, Inst::Call { callee: c, .. } if c == callee))
        .count()
}

fn read(vm: &Vm, global: &str) -> i64 {
    let bytes = vm.attacker_read(vm.global_addr(global).unwrap(), 8).unwrap();
    i64::from_le_bytes(bytes.try_into().unwrap())
}

#[test]
fn pauses_at_every_activation_inlined_or_not() {
    let src = source();
    for level in [OptLevel::None, OptLevel::Ipo] {
        let mut m = rsti_frontend::compile(&src, "pause").unwrap();
        optimize_module(&mut m, level);
        let inlined = level == OptLevel::Ipo;
        assert_eq!(calls_to(&m, "main", "callee"), if inlined { 0 } else { 2 });
        assert_eq!(calls_to(&m, "big", "callee"), 1, "big's call is never inlined");
        for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
            let img = Image::baseline(&m).with_exec(exec);
            let mut vm = Vm::new(&img);
            // One pause per activation, before its first statement runs:
            // callee(1) in main, callee(2) in big, callee(3) in main. None
            // at the `if` block or after the inlined `note`.
            for (trace, notes) in [(0, 0), (15, 1), (152, 12)] {
                assert_eq!(vm.run_to_function("callee"), RunStop::Entered, "{level:?}");
                assert_eq!(
                    (read(&vm, "trace"), read(&vm, "notes")),
                    (trace, notes),
                    "{level:?} {exec:?}"
                );
            }
            assert_eq!(vm.run_to_function("callee"), RunStop::Done(Status::Exited(0)));
            assert_eq!(read(&vm, "trace"), 1523, "{level:?} {exec:?}");
        }
    }
}

#[test]
fn unknown_function_is_a_bad_program() {
    let m = rsti_frontend::compile("int main() { return 0; }", "t").unwrap();
    let img = Image::baseline(&m);
    assert_eq!(
        Vm::new(&img).run_to_function("x"),
        RunStop::Done(Status::Trapped(Trap::BadProgram("no function `x`".into())))
    );
}
