//! The id check on hand-built modules: every id that does not resolve is
//! a structured error from both `check_ids` and `verify_module`, never a
//! panic. The VM's side of the contract (a trapped VM at load) is pinned
//! in `rsti-vm`'s `tests/op_semantics.rs`.

use rsti_ir::{
    check_ids, verify_module, BasicBlock, BinOp, FieldDef, FuncSig, GlobalDef, GlobalId,
    GlobalInit, Inst, InstNode, Module, Operand, Scope, StrId, StructDef, StructId, Terminator,
    Type, TypeId, ValueId, VarInfo, VarKind,
};

const I32: TypeId = TypeId(4);
/// `i32*`, the first type [`with_main`] interns past the scalars.
const P_I32: TypeId = TypeId(7);

/// A module whose `main` returns `i32` from one block of `insts`.
fn with_main(value_types: Vec<TypeId>, insts: Vec<Inst>) -> Module {
    let mut m = Module::new("ids");
    assert_eq!(m.types.ptr(I32), P_I32);
    let main = m.declare_func("main", FuncSig::new(I32, vec![]), false);
    let f = m.func_mut(main);
    f.value_types = value_types;
    f.blocks = vec![BasicBlock {
        insts: insts.into_iter().map(|inst| InstNode { inst, loc: None }).collect(),
        term: Terminator::Ret(Some(Operand::ConstInt(0, I32))),
        term_loc: None,
    }];
    m
}

/// [`with_main`] plus one global `g`.
fn with_global(ty: TypeId, init: GlobalInit) -> Module {
    let mut m = with_main(vec![], vec![]);
    let var = m.add_var(VarInfo {
        name: "g".into(),
        ty: I32,
        scope: Scope::Module,
        is_const: false,
        kind: VarKind::Global,
        line: 1,
    });
    m.globals.push(GlobalDef { name: "g".into(), ty, var, init });
    m
}

/// One module per malformed-id shape: each is reported as exactly one
/// error, and `verify_module` reports what `check_ids` does (a module
/// with an unresolved id is not type-checked).
#[test]
fn unresolved_ids_are_errors_not_panics() {
    let one = Operand::ConstInt(1, I32);
    let alloca = |ty| Inst::Alloca { result: ValueId(0), ty, var: None };

    let mut external_main = Module::new("ids");
    external_main.declare_func("main", FuncSig::new(I32, vec![]), true);

    let mut no_blocks = with_main(vec![], vec![]);
    no_blocks.declare_func("f", FuncSig::new(I32, vec![]), false);

    let mut struct_cycle = with_main(vec![], vec![]);
    let s = struct_cycle.types.declare_struct(StructDef { name: "s".into(), fields: vec![] });
    let st = struct_cycle.types.intern(Type::Struct(s));
    let ty = struct_cycle.types.array(st, 2);
    let field = FieldDef { name: "inner".into(), ty, is_const: false };
    struct_cycle.types.struct_def_mut(s).fields.push(field);

    // ty8 = ty9*, ty9 = ty8*: a pointer chain that never ends.
    let mut pointer_cycle = with_main(vec![], vec![]);
    let p = pointer_cycle.types.intern(Type::Ptr(TypeId(9)));
    pointer_cycle.types.ptr(p);

    let cases = [
        (
            with_main(
                vec![I32],
                vec![Inst::Convert { result: ValueId(0), value: one.clone(), to: TypeId(999) }],
            ),
            "main: bb0[0]: unknown type ty999",
        ),
        (
            with_main(
                vec![P_I32],
                vec![Inst::FieldAddr {
                    result: ValueId(0),
                    base: Operand::Null(P_I32),
                    struct_id: StructId(7),
                    field: 0,
                }],
            ),
            "main: bb0[0]: unknown struct #7",
        ),
        (with_main(vec![P_I32], vec![alloca(TypeId(999))]), "main: bb0[0]: unknown type ty999"),
        (with_global(TypeId(777), GlobalInit::Zero), "global g: unknown type ty777"),
        (with_global(P_I32, GlobalInit::Str(StrId(5))), "global g: unknown string #5"),
        (
            with_main(
                vec![],
                vec![Inst::Bin {
                    result: ValueId(50),
                    op: BinOp::Add,
                    lhs: one.clone(),
                    rhs: one.clone(),
                    ty: I32,
                }],
            ),
            "main: bb0[0]: unknown value %50",
        ),
        (
            // A store through a pointer whose value-table type is unknown.
            with_main(
                vec![TypeId(999)],
                vec![alloca(I32), Inst::Store { value: one, ptr: Operand::Value(ValueId(0)) }],
            ),
            "main: unknown type ty999",
        ),
        (external_main, "main: `main` is an external declaration"),
        (no_blocks, "f: defined function has no blocks"),
        (struct_cycle, "types: struct #0 `s` contains itself by value"),
        (pointer_cycle, "types: ty8 is built on a type that is not an earlier one"),
    ];
    for (m, want) in cases {
        let errs = verify_module(&m).expect_err(want);
        let got: Vec<String> = errs.iter().map(ToString::to_string).collect();
        assert_eq!(got, [want]);
        assert_eq!(check_ids(&m, []).unwrap_err(), errs, "{want}");
    }
}

/// The loader's signing list names globals too.
#[test]
fn signed_globals_must_resolve() {
    let m = with_global(I32, GlobalInit::Int(1));
    assert!(check_ids(&m, [GlobalId(0)]).is_ok());
    let errs = check_ids(&m, [GlobalId(3)]).unwrap_err();
    assert_eq!(errs[0].to_string(), "global signing: unknown global #3");
}
