//! The module verifier.
//!
//! Instrumentation passes rewrite instruction streams wholesale; the
//! verifier gives them (and the frontend) a machine-checked well-formedness
//! contract. It runs in two layers:
//!
//! * [`check_ids`] confirms that every id in a module resolves — types,
//!   structs and fields, globals, strings, functions, variables, blocks and
//!   values — and that the type table is well-founded. It is total: it never
//!   panics, whatever the module holds. The VM runs it once per image, so a
//!   malformed image loads into a trapped VM instead of failing mid-run.
//! * [`verify_module`] runs that pass first and, on a module whose ids all
//!   resolve, checks that no block is left unterminated (except deliberate
//!   `unreachable`) and that loads/stores/GEPs/calls/returns are
//!   type-consistent.
//!
//! Pointer-typed positions are checked *loosely* (any pointer may stand in
//! for any other): MiniC, like C, freely passes `struct node*` where `void*`
//! is expected, and the instrumentation inserts `PacSign`/`PacAuth` values
//! that keep the original pointer type. Scalar positions are checked
//! strictly.

use crate::function::Function;
use crate::inst::{Inst, Operand, Terminator};
use crate::module::{GlobalId, GlobalInit, Module};
use crate::types::{FuncSig, Sizer, Type, TypeId, TypeTable};
use std::fmt;

/// A single verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name; for a failure outside any function, the item it is
    /// in (`types`, `global <name>`, `global signing`).
    pub func: String,
    /// Block index (`usize::MAX` = outside any block: a signature, a value
    /// table, or a module-level item).
    pub block: usize,
    /// Instruction index within the block (`usize::MAX` = terminator).
    pub index: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.block == usize::MAX {
            write!(f, "{}: {}", self.func, self.msg)
        } else if self.index == usize::MAX {
            write!(f, "{}: bb{}: terminator: {}", self.func, self.block, self.msg)
        } else {
            write!(f, "{}: bb{}[{}]: {}", self.func, self.block, self.index, self.msg)
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module. Returns all failures rather than the first.
/// A module with an id that does not resolve gets only [`check_ids`]'
/// failures: type checking needs every id to resolve.
///
/// # Errors
/// Returns the list of [`VerifyError`]s when the module is ill-formed.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    check_ids(m, [])?;
    let mut errs = Vec::new();
    for (_, f) in m.funcs().filter(|(_, f)| !f.is_external) {
        verify_function(m, f, &mut errs);
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Checks that every id in `m` resolves, and that the type table is
/// well-founded (type layout and display terminate). `signed_globals` are
/// the globals a loader signs before `main` (an image's signing list);
/// they must name globals of `m` too.
///
/// Besides ids, it checks the three shapes a loader relies on: externals
/// have no body, defined functions have an entry block, and `main` is not
/// external. Never panics.
///
/// # Errors
/// Returns one [`VerifyError`] per failure.
pub fn check_ids(
    m: &Module,
    signed_globals: impl IntoIterator<Item = GlobalId>,
) -> Result<(), Vec<VerifyError>> {
    let mut c = Ids { m, errs: Vec::new(), owner: Owner::Types, block: usize::MAX, index: 0 };
    c.type_table();
    for g in &m.globals {
        c.owner = Owner::Global(&g.name);
        c.ty(g.ty);
        c.id(g.var.0, m.vars.len(), "var var");
        match g.init {
            GlobalInit::FuncAddr(f) => c.id(f.0, m.funcs.len(), "function @"),
            GlobalInit::Str(s) => c.id(s.0, m.strings.len(), "string #"),
            GlobalInit::Zero | GlobalInit::Int(_) => {}
        }
    }
    c.owner = Owner::GlobalSigning;
    for g in signed_globals {
        c.id(g.0, m.globals.len(), "global #");
    }
    for f in &m.funcs {
        c.function(f);
    }
    if m.func_by_name("main").is_some_and(|id| m.func(id).is_external) {
        (c.owner, c.block) = (Owner::Func("main"), usize::MAX);
        c.err("`main` is an external declaration".into());
    }
    if c.errs.is_empty() {
        Ok(())
    } else {
        Err(c.errs)
    }
}

/// The item the id pass is in, named only when it reports a failure.
#[derive(Clone, Copy)]
enum Owner<'a> {
    Types,
    Global(&'a str),
    GlobalSigning,
    Func(&'a str),
}

/// The id pass's cursor: where the next failure is reported.
struct Ids<'a> {
    m: &'a Module,
    errs: Vec<VerifyError>,
    owner: Owner<'a>,
    block: usize,
    index: usize,
}

impl<'a> Ids<'a> {
    fn err(&mut self, msg: String) {
        let func = match self.owner {
            Owner::Types => "types".into(),
            Owner::Global(name) => format!("global {name}"),
            Owner::GlobalSigning => "global signing".into(),
            Owner::Func(name) => name.into(),
        };
        let (block, index) = (self.block, self.index);
        self.errs.push(VerifyError { func, block, index, msg });
    }

    /// Reports `unknown <what><i>` unless index `i` is below `len`; `what`
    /// ends in the id's display prefix (`"type ty"`, `"value %"`).
    fn id(&mut self, i: u32, len: usize, what: &str) {
        if i as usize >= len {
            self.err(format!("unknown {what}{i}"));
        }
    }

    fn ty(&mut self, t: TypeId) {
        self.id(t.0, self.m.types.len(), "type ty");
    }

    fn sig(&mut self, sig: &FuncSig) {
        self.ty(sig.ret);
        for &p in &sig.params {
            self.ty(p);
        }
    }

    /// Component types precede the types built on them (so pointer chains
    /// end), struct fields name real types, and no struct contains itself
    /// by value (so sizes are finite).
    fn type_table(&mut self) {
        let t: &TypeTable = &self.m.types;
        for i in 0..t.len() as u32 {
            let earlier = |c: &TypeId| c.0 < i;
            let well_founded = match t.get(TypeId(i)) {
                Type::Ptr(c) | Type::Array(c, _) => earlier(c),
                Type::Func(sig) => earlier(&sig.ret) && sig.params.iter().all(earlier),
                Type::Struct(s) => {
                    self.id(s.0, t.struct_count(), "struct #");
                    true
                }
                _ => true,
            };
            if !well_founded {
                self.err(format!("ty{i} is built on a type that is not an earlier one"));
            }
        }
        for (_, def) in t.structs() {
            for f in &def.fields {
                self.ty(f.ty);
            }
        }
        if !self.errs.is_empty() {
            return;
        }
        // One sizing pass; a struct whose fields do not all size sits on,
        // or contains, a by-value cycle.
        let mut sizer = Sizer::new(t);
        for (s, def) in t.structs() {
            if def.fields.iter().any(|f| sizer.size(f.ty).is_none()) {
                self.err(format!("struct #{} `{}` contains itself by value", s.0, def.name));
            }
        }
    }

    fn function(&mut self, f: &'a Function) {
        let (m, nvals, nblocks) = (self.m, f.value_types.len(), f.blocks.len());
        (self.owner, self.block, self.index) = (Owner::Func(&f.name), usize::MAX, 0);
        self.sig(&f.sig);
        for &t in &f.value_types {
            self.ty(t);
        }
        for &(v, var) in &f.params {
            self.id(v.0, nvals, "value %");
            if let Some(var) = var {
                self.id(var.0, m.vars.len(), "var var");
            }
        }
        if f.is_external && !f.blocks.is_empty() {
            self.err("external function has a body".into());
        }
        if !f.is_external && f.blocks.is_empty() {
            self.err("defined function has no blocks".into());
        }
        for (bi, b) in f.blocks.iter().enumerate() {
            self.block = bi;
            for (ii, node) in b.insts.iter().enumerate() {
                self.index = ii;
                self.inst(&node.inst, nvals);
            }
            self.index = usize::MAX;
            let targets = match &b.term {
                Terminator::Br(t) => [Some(*t), None],
                Terminator::CondBr { then_bb, else_bb, .. } => [Some(*then_bb), Some(*else_bb)],
                Terminator::Ret(_) | Terminator::Unreachable => [None, None],
            };
            for t in targets.into_iter().flatten() {
                self.id(t.0, nblocks, "block bb");
            }
            if let Some(op) = b.term.operand() {
                self.operand(op, nvals);
            }
        }
    }

    fn operand(&mut self, op: &Operand, nvals: usize) {
        let m = self.m;
        let ty = match op {
            Operand::Value(v) => return self.id(v.0, nvals, "value %"),
            Operand::ConstInt(_, t) | Operand::ConstFloat(_, t) | Operand::Null(t) => t,
            Operand::FuncAddr(f, t) => {
                self.id(f.0, m.funcs.len(), "function @");
                t
            }
            Operand::GlobalAddr(g, t) => {
                self.id(g.0, m.globals.len(), "global #");
                t
            }
            Operand::Str(s, t) => {
                self.id(s.0, m.strings.len(), "string #");
                t
            }
        };
        self.ty(*ty);
    }

    fn inst(&mut self, inst: &Inst, nvals: usize) {
        let m = self.m;
        if let Some(r) = inst.result() {
            self.id(r.0, nvals, "value %");
        }
        inst.for_each_operand(|op| self.operand(op, nvals));
        match inst {
            Inst::Alloca { ty, var, .. } => {
                self.ty(*ty);
                if let Some(v) = var {
                    self.id(v.0, m.vars.len(), "var var");
                }
            }
            Inst::Load { ty, .. }
            | Inst::IndexAddr { elem_ty: ty, .. }
            | Inst::BitCast { to: ty, .. }
            | Inst::Convert { to: ty, .. }
            | Inst::Bin { ty, .. }
            | Inst::Malloc { result_ty: ty, .. } => self.ty(*ty),
            Inst::FieldAddr { struct_id: s, field, .. } => {
                self.id(s.0, m.types.struct_count(), "struct #");
                if let Some((_, def)) = m.types.structs().nth(s.0 as usize) {
                    if *field >= def.fields.len() {
                        self.err(format!("unknown field {field} of struct {}", def.name));
                    }
                }
            }
            Inst::Call { callee, .. } => self.id(callee.0, m.funcs.len(), "function @"),
            Inst::CallIndirect { sig, .. } => self.sig(sig),
            Inst::PrintStr { s } => self.id(s.0, m.strings.len(), "string #"),
            Inst::Store { .. }
            | Inst::Cmp { .. }
            | Inst::Free { .. }
            | Inst::PrintInt { .. }
            | Inst::PacSign { .. }
            | Inst::PacAuth { .. }
            | Inst::PacStrip { .. }
            | Inst::PpAdd { .. }
            | Inst::PpSign { .. }
            | Inst::PpAddTbi { .. }
            | Inst::PpAuth { .. } => {}
        }
    }
}

/// Type-checking context for one function whose ids all resolve.
struct Ctx<'a> {
    m: &'a Module,
    f: &'a Function,
    errs: &'a mut Vec<VerifyError>,
    block: usize,
    index: usize,
}

impl Ctx<'_> {
    fn err(&mut self, msg: impl Into<String>) {
        self.errs.push(VerifyError {
            func: self.f.name.clone(),
            block: self.block,
            index: self.index,
            msg: msg.into(),
        });
    }

    fn operand_type(&self, op: &Operand) -> TypeId {
        match op {
            Operand::Value(v) => self.f.value_type(*v),
            Operand::ConstInt(_, t)
            | Operand::ConstFloat(_, t)
            | Operand::Null(t)
            | Operand::Str(_, t)
            | Operand::FuncAddr(_, t)
            | Operand::GlobalAddr(_, t) => *t,
        }
    }

    /// Strict match for scalars; any-pointer-matches-any-pointer laxity.
    fn types_compatible(&self, a: TypeId, b: TypeId) -> bool {
        if a == b {
            return true;
        }
        matches!(
            (self.m.types.get(a), self.m.types.get(b)),
            (Type::Ptr(_), Type::Ptr(_))
        )
    }

    fn expect_compatible(&mut self, what: &str, expected: TypeId, got: TypeId) {
        if !self.types_compatible(expected, got) {
            let e = self.m.types.display(expected);
            let g = self.m.types.display(got);
            self.err(format!("{what}: expected `{e}`, got `{g}`"));
        }
    }

    fn expect_ptr(&mut self, what: &str, ty: TypeId) -> Option<TypeId> {
        match self.m.types.get(ty) {
            Type::Ptr(p) => Some(*p),
            _ => {
                self.err(format!(
                    "{what}: expected a pointer, got `{}`",
                    self.m.types.display(ty)
                ));
                None
            }
        }
    }

    /// `expect_ptr` on an operand's type.
    fn expect_ptr_op(&mut self, what: &str, op: &Operand) -> Option<TypeId> {
        let t = self.operand_type(op);
        self.expect_ptr(what, t)
    }
}

fn verify_function(m: &Module, f: &Function, errs: &mut Vec<VerifyError>) {
    let mut ctx = Ctx { m, f, errs, block: 0, index: 0 };
    for (bi, blk) in f.blocks.iter().enumerate() {
        ctx.block = bi;
        for (ii, node) in blk.insts.iter().enumerate() {
            ctx.index = ii;
            verify_inst(&mut ctx, &node.inst);
        }
        ctx.index = usize::MAX;
        match &blk.term {
            Terminator::CondBr { cond, .. } => {
                let ct = ctx.operand_type(cond);
                ctx.expect_compatible("condbr condition", m.types.bool(), ct);
            }
            Terminator::Ret(v) => {
                let want = f.sig.ret;
                match v {
                    None => {
                        if want != m.types.void() {
                            ctx.err("return without value from non-void function");
                        }
                    }
                    Some(op) => {
                        if want == m.types.void() {
                            ctx.err("return with value from void function");
                        } else {
                            let t = ctx.operand_type(op);
                            ctx.expect_compatible("return value", want, t);
                        }
                    }
                }
            }
            Terminator::Br(_) | Terminator::Unreachable => {}
        }
    }
}

fn verify_inst(ctx: &mut Ctx<'_>, inst: &Inst) {
    match inst {
        Inst::Load { result, ptr, ty } => {
            if let Some(pointee) = ctx.expect_ptr_op("load pointer", ptr) {
                ctx.expect_compatible("load result", *ty, pointee);
            }
            let rt = ctx.f.value_type(*result);
            ctx.expect_compatible("load result register", *ty, rt);
        }
        Inst::Store { value, ptr } => {
            let vt = ctx.operand_type(value);
            if let Some(pointee) = ctx.expect_ptr_op("store pointer", ptr) {
                ctx.expect_compatible("store value", pointee, vt);
            }
        }
        Inst::FieldAddr { base, .. } => {
            ctx.expect_ptr_op("fieldaddr base", base);
        }
        Inst::IndexAddr { base, index, .. } => {
            ctx.expect_ptr_op("indexaddr base", base);
            let it = ctx.operand_type(index);
            if !matches!(ctx.m.types.get(it), Type::I8 | Type::I16 | Type::I32 | Type::I64) {
                ctx.err("indexaddr index must be an integer");
            }
        }
        Inst::BitCast { value, to, .. } => {
            let vt = ctx.operand_type(value);
            if !(ctx.m.types.is_ptr(vt) && ctx.m.types.is_ptr(*to)) {
                ctx.err("bitcast requires pointer types on both sides");
            }
        }
        Inst::Convert { value, to, .. } => {
            let numeric = |t: TypeId| {
                matches!(
                    ctx.m.types.get(t),
                    Type::Bool | Type::I8 | Type::I16 | Type::I32 | Type::I64 | Type::F64
                )
            };
            if !numeric(ctx.operand_type(value)) || !numeric(*to) {
                ctx.err("convert requires numeric types on both sides");
            }
        }
        Inst::Bin { op: _, lhs, rhs, ty, .. } => {
            let (lt, rt) = (ctx.operand_type(lhs), ctx.operand_type(rhs));
            ctx.expect_compatible("binop lhs", *ty, lt);
            ctx.expect_compatible("binop rhs", *ty, rt);
        }
        Inst::Cmp { lhs, rhs, .. } => {
            let (a, b) = (ctx.operand_type(lhs), ctx.operand_type(rhs));
            if !ctx.types_compatible(a, b) {
                ctx.err("cmp operands have different types");
            }
        }
        Inst::Call { callee, args, .. } => {
            check_call_args(ctx, &ctx.m.func(*callee).sig, args);
        }
        Inst::CallIndirect { callee, sig, args, .. } => {
            ctx.expect_ptr_op("indirect callee", callee);
            check_call_args(ctx, sig, args);
        }
        Inst::Malloc { size, .. } => {
            let st = ctx.operand_type(size);
            if !matches!(ctx.m.types.get(st), Type::I32 | Type::I64) {
                ctx.err("malloc size must be i32/i64");
            }
        }
        Inst::Free { ptr } | Inst::PacStrip { value: ptr, .. } => {
            ctx.expect_ptr_op("pointer operand", ptr);
        }
        Inst::PacSign { value, loc, .. } | Inst::PacAuth { value, loc, .. } => {
            ctx.expect_ptr_op("pac operand", value);
            if let Some(l) = loc {
                ctx.expect_ptr_op("pac location", l);
            }
        }
        Inst::PpSign { value, .. } | Inst::PpAddTbi { value, .. } | Inst::PpAuth { value, .. } => {
            ctx.expect_ptr_op("pp operand", value);
        }
        Inst::Alloca { .. }
        | Inst::PrintInt { .. }
        | Inst::PrintStr { .. }
        | Inst::PpAdd { .. } => {}
    }
}

fn check_call_args(ctx: &mut Ctx<'_>, sig: &FuncSig, args: &[Operand]) {
    let fixed = sig.params.len();
    if args.len() < fixed || (!sig.varargs && args.len() != fixed) {
        ctx.err(format!(
            "call arity mismatch: expected {}{}, got {}",
            fixed,
            if sig.varargs { "+" } else { "" },
            args.len()
        ));
        return;
    }
    for (i, (arg, want)) in args.iter().zip(sig.params.iter()).enumerate() {
        let t = ctx.operand_type(arg);
        ctx.expect_compatible(&format!("call argument {i}"), *want, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;
    use crate::types::FuncSig;

    #[test]
    fn valid_module_passes() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let fid = m.declare_func("f", FuncSig::new(i32t, vec![i32t]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        let p = b.param(0);
        let r = b.bin(BinOp::Mul, p, Operand::ConstInt(2, i32t), i32t);
        b.ret(Some(r.into()));
        b.finish();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn type_mismatch_caught() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fid = m.declare_func("f", FuncSig::new(i32t, vec![]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        let slot = b.alloca(i32t, None);
        // storing a double into an i32 slot
        b.store(Operand::float(1.0, f64t), slot);
        b.ret(Some(Operand::ConstInt(0, i32t)));
        b.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.msg.contains("store value")), "{errs:?}");
    }

    #[test]
    fn missing_return_value_caught() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let fid = m.declare_func("f", FuncSig::new(i32t, vec![]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        b.ret(None);
        b.finish();
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].to_string().contains("without value"));
    }

    #[test]
    fn pointer_laxity_between_pointer_types() {
        // Storing a struct pointer into a void* slot is fine, as in C.
        let mut m = Module::new("t");
        let void = m.types.void();
        let vp = m.types.void_ptr();
        let i32t = m.types.i32();
        let ip = m.types.ptr(i32t);
        let fid = m.declare_func("f", FuncSig::new(void, vec![ip]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        let arg = b.param(0);
        let slot = b.alloca(vp, None);
        b.store(arg, slot);
        b.ret(None);
        b.finish();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn branch_to_unknown_block_caught() {
        let mut m = Module::new("t");
        let void = m.types.void();
        let fid = m.declare_func("f", FuncSig::new(void, vec![]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        b.br(crate::function::BlockId(9));
        b.finish();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs[0].msg.contains("unknown block"));
    }
}
