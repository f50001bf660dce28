//! Op semantics pinned to expected values.
//!
//! Both engines execute the same translated ops, so engine parity alone no
//! longer re-checks what an op does. This table builds small IR bodies by
//! hand — shapes the frontend never emits — and asserts the exact status
//! and trap text each must produce, under both engines.

use rsti_ir::{
    BasicBlock, BlockId, FuncSig, GlobalId, Inst, InstNode, Module, Operand, StrId, Terminator,
    TypeId, ValueId,
};
use rsti_vm::{ExecBackend, Image, Status, Trap, Vm};

/// The type table entries the cases need, interned once.
struct Tys {
    i32: TypeId,
    i64: TypeId,
    f64: TypeId,
    void: TypeId,
    p_i32: TypeId,
    p_i64: TypeId,
    p_i8: TypeId,
}

/// One case: `main`'s entry block (value types, instructions, terminator)
/// and the `BadProgram` message it must trap with.
type Case = (
    &'static str,
    Vec<TypeId>,
    Vec<Inst>,
    Terminator,
    &'static str,
);

fn cases(t: &Tys) -> Vec<Case> {
    let v = |i: u32| Operand::Value(ValueId(i));
    let float = Operand::ConstFloat(1.5f64.to_bits(), t.f64);
    let ret0 = Terminator::Ret(Some(Operand::ConstInt(0, t.i64)));
    vec![
        (
            "undefined value",
            vec![t.i64, t.i64],
            vec![Inst::PrintInt { value: v(1) }],
            ret0.clone(),
            "use of undefined %1",
        ),
        (
            "out-of-range global operand",
            vec![t.i64],
            vec![Inst::Load {
                result: ValueId(0),
                ptr: Operand::GlobalAddr(GlobalId(3), t.p_i64),
                ty: t.i64,
            }],
            ret0.clone(),
            "global 3 out of range",
        ),
        (
            "out-of-range string operand",
            vec![],
            vec![Inst::PrintInt {
                value: Operand::Str(StrId(9), t.p_i8),
            }],
            ret0.clone(),
            "string 9 out of range",
        ),
        (
            "out-of-range string table entry",
            vec![],
            vec![Inst::PrintStr { s: StrId(4) }],
            ret0.clone(),
            "string 4 out of range",
        ),
        (
            "float used as pointer",
            vec![t.i64],
            vec![Inst::Load {
                result: ValueId(0),
                ptr: float.clone(),
                ty: t.i64,
            }],
            ret0.clone(),
            "float used as pointer",
        ),
        (
            "float index",
            vec![t.p_i64],
            vec![Inst::IndexAddr {
                result: ValueId(0),
                base: Operand::Null(t.p_i64),
                index: float.clone(),
                elem_ty: t.i64,
            }],
            ret0.clone(),
            "float index",
        ),
        (
            "float malloc size",
            vec![t.p_i8],
            vec![Inst::Malloc {
                result: ValueId(0),
                size: float.clone(),
                result_ty: t.p_i8,
            }],
            ret0.clone(),
            "float malloc size",
        ),
        (
            "load of an unsupported type",
            vec![t.p_i64, t.void],
            vec![
                Inst::Alloca {
                    result: ValueId(0),
                    ty: t.i64,
                    var: None,
                },
                Inst::Load {
                    result: ValueId(1),
                    ptr: v(0),
                    ty: t.void,
                },
            ],
            ret0.clone(),
            "load of unsupported type Void",
        ),
        (
            "store value/type mismatch",
            vec![t.p_i32],
            vec![
                Inst::Alloca {
                    result: ValueId(0),
                    ty: t.i32,
                    var: None,
                },
                Inst::Store {
                    value: float,
                    ptr: v(0),
                },
            ],
            ret0,
            "store of F(1.5) into I32",
        ),
        (
            "branch to a missing block",
            vec![],
            vec![],
            Terminator::Br(BlockId(7)),
            "branch to missing block 7 in main",
        ),
        (
            "undefined return value",
            vec![t.i64],
            vec![],
            Terminator::Ret(Some(v(0))),
            "use of undefined %0",
        ),
    ]
}

#[test]
fn malformed_ops_trap_with_exact_messages_under_both_engines() {
    // A module holding only the type table; each case adds its `main`.
    let mut base = Module::new("ops");
    let tys = Tys {
        i32: base.types.i32(),
        i64: base.types.i64(),
        f64: base.types.f64(),
        void: base.types.void(),
        p_i32: base.types.ptr(base.types.i32()),
        p_i64: base.types.ptr(base.types.i64()),
        p_i8: base.types.ptr(base.types.i8()),
    };
    for (what, value_types, insts, term, msg) in cases(&tys) {
        let mut m = base.clone();
        let main = m.declare_func("main", FuncSig::new(tys.i64, vec![]), false);
        let f = &mut m.funcs[main.0 as usize];
        f.value_types = value_types;
        f.blocks = vec![BasicBlock {
            insts: insts
                .into_iter()
                .map(|inst| InstNode { inst, loc: None })
                .collect(),
            term,
            term_loc: None,
        }];
        for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
            let img = Image::baseline(&m).with_exec(exec);
            let r = Vm::new(&img).run();
            let want = Trap::BadProgram(msg.to_string());
            assert_eq!(
                r.status,
                Status::Trapped(want.clone()),
                "{what} ({})",
                exec.label()
            );
            assert_eq!(want.to_string(), format!("bad program: {msg}"));
            assert!(r.audit.is_empty(), "{what}: not an RSTI detection");
        }
    }
}
