//! Op semantics pinned to expected values.
//!
//! Both engines execute the same translated ops, so engine parity alone no
//! longer re-checks what an op does. This table builds small IR bodies by
//! hand — shapes the frontend never emits — and asserts the exact status
//! and trap text each must produce, under both engines. An id that does not
//! resolve traps at load, from the image's id check, before any op runs;
//! a value of the wrong shape traps when its op runs.

use rsti_ir::{
    BasicBlock, BinOp, BlockId, FuncSig, GlobalDef, GlobalId, GlobalInit, Inst, InstNode, Module,
    Operand, Scope, StrId, StructId, Terminator, TypeId, ValueId, VarId, VarInfo, VarKind,
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

/// When a case's `BadProgram` trap fires: at load, from the image's id
/// check (nothing executes), or when the op runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum At {
    Load,
    Run,
}

/// One case: the module, when it traps, and the `BadProgram` message.
type Case = (&'static str, Module, At, &'static str);

/// `base` plus a `main` whose entry block is `insts` and `term`.
fn with_main(
    base: &Module,
    t: &Tys,
    value_types: Vec<TypeId>,
    insts: Vec<Inst>,
    term: Terminator,
) -> Module {
    let mut m = base.clone();
    let main = m.declare_func("main", FuncSig::new(t.i64, vec![]), false);
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
    m
}

fn cases(base: &Module, t: &Tys) -> Vec<Case> {
    let v = |i: u32| Operand::Value(ValueId(i));
    let float = Operand::ConstFloat(1.5f64.to_bits(), t.f64);
    let one = Operand::ConstInt(1, t.i64);
    let ret0 = Terminator::Ret(Some(Operand::ConstInt(0, t.i64)));
    let body = |vts: Vec<TypeId>, insts: Vec<Inst>| with_main(base, t, vts, insts, ret0.clone());
    let with_global = |ty: TypeId, init: GlobalInit| {
        let mut m = body(vec![], vec![]);
        m.globals.push(GlobalDef {
            name: "g".into(),
            ty,
            var: VarId(0),
            init,
        });
        m.add_var(VarInfo {
            name: "g".into(),
            ty: t.i64,
            scope: Scope::Module,
            is_const: false,
            kind: VarKind::Global,
            line: 1,
        });
        m
    };
    let external_main = {
        let mut m = base.clone();
        m.declare_func("main", FuncSig::new(t.i64, vec![]), true);
        m
    };
    let blockless_callee = {
        let mut m = body(vec![], vec![]);
        m.declare_func("f", FuncSig::new(t.void, vec![]), false);
        m
    };
    vec![
        (
            "undefined value",
            body(vec![t.i64, t.i64], vec![Inst::PrintInt { value: v(1) }]),
            At::Run,
            "use of undefined %1",
        ),
        (
            "out-of-range global operand",
            body(
                vec![t.i64],
                vec![Inst::Load {
                    result: ValueId(0),
                    ptr: Operand::GlobalAddr(GlobalId(3), t.p_i64),
                    ty: t.i64,
                }],
            ),
            At::Load,
            "main: bb0[0]: unknown global #3",
        ),
        (
            "out-of-range string operand",
            body(
                vec![],
                vec![Inst::PrintInt {
                    value: Operand::Str(StrId(9), t.p_i8),
                }],
            ),
            At::Load,
            "main: bb0[0]: unknown string #9",
        ),
        (
            "out-of-range string table entry",
            body(vec![], vec![Inst::PrintStr { s: StrId(4) }]),
            At::Load,
            "main: bb0[0]: unknown string #4",
        ),
        (
            "float used as pointer",
            body(
                vec![t.i64],
                vec![Inst::Load {
                    result: ValueId(0),
                    ptr: float.clone(),
                    ty: t.i64,
                }],
            ),
            At::Run,
            "float used as pointer",
        ),
        (
            "float index",
            body(
                vec![t.p_i64],
                vec![Inst::IndexAddr {
                    result: ValueId(0),
                    base: Operand::Null(t.p_i64),
                    index: float.clone(),
                    elem_ty: t.i64,
                }],
            ),
            At::Run,
            "float index",
        ),
        (
            "float malloc size",
            body(
                vec![t.p_i8],
                vec![Inst::Malloc {
                    result: ValueId(0),
                    size: float.clone(),
                    result_ty: t.p_i8,
                }],
            ),
            At::Run,
            "float malloc size",
        ),
        (
            "load of an unsupported type",
            body(
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
            ),
            At::Run,
            "load of unsupported type Void",
        ),
        (
            "store value/type mismatch",
            body(
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
            ),
            At::Run,
            "store of F(1.5) into I32",
        ),
        (
            "branch to a missing block",
            with_main(base, t, vec![], vec![], Terminator::Br(BlockId(7))),
            At::Load,
            "main: bb0: terminator: unknown block bb7",
        ),
        (
            "undefined return value",
            with_main(base, t, vec![t.i64], vec![], Terminator::Ret(Some(v(0)))),
            At::Run,
            "use of undefined %0",
        ),
        (
            "convert to an unknown type",
            body(
                vec![t.i64],
                vec![Inst::Convert {
                    result: ValueId(0),
                    value: one.clone(),
                    to: TypeId(999),
                }],
            ),
            At::Load,
            "main: bb0[0]: unknown type ty999",
        ),
        (
            "field of an unknown struct",
            body(
                vec![t.p_i64],
                vec![Inst::FieldAddr {
                    result: ValueId(0),
                    base: Operand::Null(t.p_i64),
                    struct_id: StructId(7),
                    field: 0,
                }],
            ),
            At::Load,
            "main: bb0[0]: unknown struct #7",
        ),
        (
            "alloca of an unknown type",
            body(
                vec![t.p_i64],
                vec![Inst::Alloca {
                    result: ValueId(0),
                    ty: TypeId(999),
                    var: None,
                }],
            ),
            At::Load,
            "main: bb0[0]: unknown type ty999",
        ),
        (
            "global of an unknown type",
            with_global(TypeId(777), GlobalInit::Zero),
            At::Load,
            "global g: unknown type ty777",
        ),
        (
            "global initialized from an unknown string",
            with_global(t.p_i8, GlobalInit::Str(StrId(5))),
            At::Load,
            "global g: unknown string #5",
        ),
        (
            "result outside the value table",
            body(
                vec![],
                vec![Inst::Bin {
                    result: ValueId(50),
                    op: BinOp::Add,
                    lhs: one.clone(),
                    rhs: one,
                    ty: t.i64,
                }],
            ),
            At::Load,
            "main: bb0[0]: unknown value %50",
        ),
        (
            "external main",
            external_main,
            At::Load,
            "main: `main` is an external declaration",
        ),
        (
            "defined function without blocks",
            blockless_callee,
            At::Load,
            "f: defined function has no blocks",
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
    for (what, m, at, msg) in cases(&base, &tys) {
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
            assert_eq!(r.insts == 0, at == At::Load, "{what}: traps {at:?}");
        }
    }
}
