//! Op semantics pinned to expected values.
//!
//! Both engines execute the same translated ops, so engine parity alone no
//! longer re-checks what an op does. This table builds small IR bodies by
//! hand — shapes the frontend never emits — and asserts the exact status
//! and trap text each must produce, under both engines. An id that does not
//! resolve traps at load, from the image's id check, before any op runs;
//! a value of the wrong shape traps when its op runs. A second table pins
//! every pointer-authentication failure — trap text, audit record and
//! the incident's check site — under both enforcement backends.

use rsti_ir::{
    BasicBlock, BinOp, BlockId, FieldDef, FuncSig, GlobalDef, GlobalId, GlobalInit, Inst,
    InstNode, Module, Operand, PacKey, PacSite, Scope, StrId, StructDef, StructId, Terminator,
    Type, TypeId, ValueId, VarId, VarInfo, VarKind,
};
use rsti_vm::{Backend, ExecBackend, Image, Status, Trap, Vm};

/// The type table entries the cases need, interned once.
struct Tys {
    i32: TypeId,
    i64: TypeId,
    f64: TypeId,
    void: TypeId,
    p_i32: TypeId,
    p_i64: TypeId,
    p_i8: TypeId,
    pp_i64: TypeId,
}

/// A module holding only the type table [`Tys`] names; each case adds
/// its `main`.
fn base() -> (Module, Tys) {
    let mut base = Module::new("ops");
    let tys = Tys {
        i32: base.types.i32(),
        i64: base.types.i64(),
        f64: base.types.f64(),
        void: base.types.void(),
        p_i32: base.types.ptr(base.types.i32()),
        p_i64: base.types.ptr(base.types.i64()),
        p_i8: base.types.ptr(base.types.i8()),
        pp_i64: {
            let p = base.types.ptr(base.types.i64());
            base.types.ptr(p)
        },
    };
    (base, tys)
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
    // A global of `struct s { struct s inner[2]; }`.
    let cyclic_global = {
        let mut m = with_global(t.i64, GlobalInit::Zero);
        let s = m.types.declare_struct(StructDef { name: "s".into(), fields: vec![] });
        let st = m.types.intern(Type::Struct(s));
        let inner = m.types.array(st, 2);
        let field = FieldDef { name: "inner".into(), ty: inner, is_const: false };
        m.types.struct_def_mut(s).fields.push(field);
        m.globals[0].ty = st;
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
            "global of a struct that contains itself",
            cyclic_global,
            At::Load,
            "types: struct #0 `s` contains itself by value",
        ),
        (
            "defined function without blocks",
            blockless_callee,
            At::Load,
            "f: defined function has no blocks",
        ),
    ]
}

/// The optimizer's static global layout (the STL modifier folding at
/// cfg/ipo) sizes a struct that contains itself by value without
/// recursing, so the loader's id check is what answers it.
#[test]
fn a_cyclic_global_is_laid_out_without_recursing() {
    let (base, tys) = base();
    let (_, mut m, ..) = cases(&base, &tys)
        .into_iter()
        .find(|(what, ..)| what.contains("contains itself"))
        .expect("the cyclic-global case");
    assert_eq!(m.global_addresses(), (vec![rsti_ir::GLOBAL_SEG_BASE], u64::MAX));
    assert_eq!(rsti_core::optimize::precompute_pac_modifiers(&mut m), 0);
}

#[test]
fn malformed_ops_trap_with_exact_messages_under_both_engines() {
    let (base, tys) = base();
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

/// What one pointer-authentication failure must raise: the trap's text,
/// and the audit record's site class, instruction and detail.
#[derive(Clone, Copy)]
struct PaFailure {
    trap: &'static str,
    site: &'static str,
    inst: &'static str,
    detail: &'static str,
}

/// One PA case: the module, the label of the check site that fails (the
/// recorded incident's `check_site`), and the failure under PAC-in-pointer
/// and under the MAC table, in that order.
type PaCase = (&'static str, Module, &'static str, [PaFailure; 2]);

fn pa_cases(base: &Module, t: &Tys) -> Vec<PaCase> {
    let v = |i: u32| Operand::Value(ValueId(i));
    let ret0 = Terminator::Ret(Some(Operand::ConstInt(0, t.i64)));
    let body = |vts: Vec<TypeId>, insts: Vec<Inst>| with_main(base, t, vts, insts, ret0.clone());
    let alloca = |r: u32, ty: TypeId| Inst::Alloca {
        result: ValueId(r),
        ty,
        var: None,
    };
    let sign = |r: u32, value: Operand, modifier: u64| Inst::PacSign {
        result: ValueId(r),
        value,
        key: PacKey::Da,
        modifier,
        loc: None,
        site: PacSite::OnStore,
    };
    let auth = |r: u32, value: Operand, modifier: u64| Inst::PacAuth {
        result: ValueId(r),
        value,
        key: PacKey::Da,
        modifier,
        loc: None,
        site: PacSite::OnLoad,
    };
    let pp_auth = |r: u32, value: Operand| Inst::PpAuth {
        result: ValueId(r),
        value,
        key: PacKey::Da,
    };
    let pp_sign = |r: u32, value: Operand, ce: u8| Inst::PpSign {
        result: ValueId(r),
        value,
        ce,
        key: PacKey::Da,
    };
    let tag = |r: u32, value: Operand, ce: u8| Inst::PpAddTbi {
        result: ValueId(r),
        value,
        ce,
    };
    let both = |f: PaFailure| [f, f];
    vec![
        (
            "pp_add of a CE already registered with another FE",
            body(
                vec![],
                vec![
                    Inst::PpAdd { ce: 3, fe_modifier: 0x11 },
                    Inst::PpAdd { ce: 3, fe_modifier: 0x22 },
                ],
            ),
            "main:bb0:1",
            both(PaFailure {
                trap: "pointer-to-pointer authentication failure in main: CE 3 metadata conflict",
                site: "pp_metadata",
                inst: "pp_add",
                detail: "CE 3 metadata conflict (had 0x11)",
            }),
        ),
        (
            "pp_sign on an unregistered CE",
            body(vec![t.p_i64, t.p_i64], vec![alloca(0, t.i64), pp_sign(1, v(0), 5)]),
            "main:bb0:1",
            both(PaFailure {
                trap: "pointer-to-pointer authentication failure in main: pp_sign: CE 5 not registered",
                site: "pp_metadata",
                inst: "pp_sign",
                detail: "CE 5 not registered",
            }),
        ),
        (
            "pp_auth of a pointer with no TBI tag",
            body(vec![t.p_i64, t.p_i64], vec![alloca(0, t.i64), pp_auth(1, v(0))]),
            "main:bb0:1",
            both(PaFailure {
                trap: "pointer-to-pointer authentication failure in main: pp_auth: missing CE tag (raw or corrupted pointer)",
                site: "pp_metadata",
                inst: "pp_auth",
                detail: "missing CE tag (raw or corrupted pointer)",
            }),
        ),
        (
            "pp_auth of a CE not in the store",
            body(
                vec![t.p_i64, t.p_i64, t.p_i64],
                vec![alloca(0, t.i64), tag(1, v(0), 7), pp_auth(2, v(1))],
            ),
            "main:bb0:2",
            both(PaFailure {
                trap: "pointer-to-pointer authentication failure in main: pp_auth: CE 7 not in metadata store",
                site: "pp_metadata",
                inst: "pp_auth",
                detail: "CE 7 not in metadata store",
            }),
        ),
        (
            "pp_auth under the wrong FE",
            body(
                vec![t.p_i64, t.p_i64, t.p_i64, t.p_i64],
                vec![
                    Inst::PpAdd { ce: 7, fe_modifier: 0xAA },
                    Inst::PpAdd { ce: 8, fe_modifier: 0xBB },
                    alloca(0, t.i64),
                    pp_sign(1, v(0), 7),
                    tag(2, v(1), 8),
                    pp_auth(3, v(2)),
                ],
            ),
            "main:bb0:5",
            [
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0xfd, expected 0xa8)",
                    site: "on_load",
                    inst: "pp_auth",
                    detail: "found PAC 0xfd, expected 0xa8",
                },
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0x0, expected 0xa8)",
                    site: "on_load",
                    inst: "pp_auth",
                    detail: "MAC missing or stale, expected 0xa8",
                },
            ],
        ),
        (
            "pac_auth under the wrong modifier",
            body(
                vec![t.p_i64, t.p_i64, t.p_i64],
                vec![alloca(0, t.i64), sign(1, v(0), 0x10), auth(2, v(1), 0x20)],
            ),
            "main:bb0:2",
            [
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0x16, expected 0xde)",
                    site: "on_load",
                    inst: "pac_auth",
                    detail: "found PAC 0x16, expected 0xde",
                },
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0x0, expected 0xde)",
                    site: "on_load",
                    inst: "pac_auth",
                    detail: "MAC missing or stale, expected 0xde",
                },
            ],
        ),
        (
            "pac_auth of a loaded pointer under the wrong modifier",
            body(
                vec![t.pp_i64, t.p_i64, t.p_i64, t.p_i64, t.p_i64],
                vec![
                    alloca(0, t.p_i64),
                    alloca(1, t.i64),
                    sign(2, v(1), 0x10),
                    Inst::Store { value: v(2), ptr: v(0) },
                    Inst::Load { result: ValueId(3), ptr: v(0), ty: t.p_i64 },
                    auth(4, v(3), 0x20),
                ],
            ),
            "main:bb0:5",
            [
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0xcb, expected 0x37)",
                    site: "on_load",
                    inst: "pac_auth",
                    detail: "found PAC 0xcb, expected 0x37",
                },
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0x0, expected 0x37)",
                    site: "on_load",
                    inst: "pac_auth",
                    detail: "MAC missing or stale, expected 0x37",
                },
            ],
        ),
        (
            "pac_auth of a never-signed pointer",
            body(vec![t.p_i64, t.p_i64], vec![alloca(0, t.i64), auth(1, v(0), 0x20)]),
            "main:bb0:1",
            [
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0x0, expected 0xde)",
                    site: "on_load",
                    inst: "pac_auth",
                    detail: "found PAC 0x0, expected 0xde",
                },
                PaFailure {
                    trap: "PAC authentication failure in main:0 at OnLoad (found 0x0, expected 0xde)",
                    site: "on_load",
                    inst: "pac_auth",
                    detail: "MAC missing or stale, expected 0xde",
                },
            ],
        ),
    ]
}

/// Every PA failure raises its exact trap and audit record under both
/// enforcement backends and both accounting modes, and — with the flight
/// recorder armed — an incident naming the check that failed.
#[test]
fn pa_failures_trap_with_exact_reports_under_both_backends() {
    let (base, tys) = base();
    for (what, m, check_site, want) in pa_cases(&base, &tys) {
        for (enforce, want) in [Backend::PacInPointer, Backend::MacTable]
            .into_iter()
            .zip(want)
        {
            for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
                let label = format!("{what} ({enforce:?}, {})", exec.label());
                let img = Image::baseline(&m)
                    .with_backend(enforce)
                    .with_exec(exec)
                    .with_record();
                let r = Vm::new(&img).run();
                let Status::Trapped(trap) = &r.status else {
                    panic!("{label}: ran to {:?}", r.status)
                };
                let [a] = r.audit.as_slice() else {
                    panic!("{label}: {} audit records", r.audit.len())
                };
                let trap_text = trap.to_string();
                assert!(trap.is_detection(), "{label}: {trap}");
                assert_eq!(trap_text, want.trap, "{label}: trap");
                assert_eq!(
                    (a.site.as_str(), a.inst.as_str(), a.detail.as_str()),
                    (want.site, want.inst, want.detail),
                    "{label}: audit record"
                );
                assert_eq!(
                    (a.func.as_str(), a.mechanism.as_str()),
                    ("main", "baseline"),
                    "{label}"
                );
                let inc = r
                    .incident
                    .as_deref()
                    .expect("a detection synthesizes an incident");
                assert_eq!(
                    (
                        inc.check_site.as_str(),
                        inc.check_kind.as_str(),
                        inc.detail.as_str()
                    ),
                    (check_site, a.inst.as_str(), a.detail.as_str()),
                    "{label}: incident"
                );
            }
        }
    }
}

/// A detection reports the line of the check that failed — not that of
/// the instruction after it, nor 0 when the check ends its block — in the
/// trap, the audit record and the incident, under both enforcement
/// backends and both accounting modes.
#[test]
fn a_detection_reports_the_failing_checks_own_line() {
    let (base, t) = base();
    let v = |i: u32| Operand::Value(ValueId(i));
    let at = |line: u32| Some(rsti_ir::DebugLoc::new(Scope::Function(0), line));
    let insts = [
        Inst::Alloca { result: ValueId(0), ty: t.i64, var: None },
        Inst::PacSign {
            result: ValueId(1),
            value: v(0),
            key: PacKey::Da,
            modifier: 0x10,
            loc: None,
            site: PacSite::OnStore,
        },
        Inst::PacAuth {
            result: ValueId(2),
            value: v(1),
            key: PacKey::Da,
            modifier: 0x20,
            loc: None,
            site: PacSite::OnLoad,
        },
        Inst::BitCast { result: ValueId(3), value: v(2), to: t.p_i8 },
    ];
    let lines = [5, 6, 7, 9];
    for n in [4, 3] {
        let mut m = with_main(
            &base,
            &t,
            vec![t.p_i64, t.p_i64, t.p_i64, t.p_i8],
            insts[..n].to_vec(),
            Terminator::Ret(Some(Operand::ConstInt(0, t.i64))),
        );
        for (node, &line) in m.funcs[0].blocks[0].insts.iter_mut().zip(&lines) {
            node.loc = at(line);
        }
        for enforce in [Backend::PacInPointer, Backend::MacTable] {
            for exec in [ExecBackend::Interp, ExecBackend::Compiled] {
                let label = format!("{n} insts ({enforce:?}, {})", exec.label());
                let img = Image::baseline(&m).with_backend(enforce).with_exec(exec).with_record();
                let r = Vm::new(&img).run();
                let Status::Trapped(trap @ Trap::PacAuthFailure { line, .. }) = &r.status else {
                    panic!("{label}: ran to {:?}", r.status)
                };
                assert_eq!(*line, 7, "{label}: {trap}");
                assert_eq!(r.audit[0].line, 7, "{label}: audit record");
                assert_eq!(r.incident.as_deref().map(|i| i.line), Some(7), "{label}: incident");
            }
        }
    }
}
