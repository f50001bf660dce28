//! AST → IR lowering with debug-metadata generation.
//!
//! This stage plays the role of Clang + the LLVM `-g` pipeline for the
//! reproduction: it resolves MiniC types against the IR [`TypeTable`],
//! checks the program, emits instructions through the
//! [`FunctionBuilder`], and — crucially for STI — records a [`VarInfo`]
//! (type, declaration scope, `const` permission) for every variable and
//! attaches a [`DebugLoc`] to every instruction, the facts the paper's
//! pass recovers from `llvm.dbg` metadata (§4.4).
//!
//! Lowering conventions that matter downstream:
//!
//! * every local and parameter lives in an `alloca` slot (LLVM `-O0`
//!   style), so every variable access is a `load`/`store` the
//!   instrumentation pass can see;
//! * *all* pointer casts — explicit `(T*)e` **and** implicit
//!   `T*`↔`void*` conversions at assignments, argument passing, and
//!   returns — lower to `BitCast`, mirroring Clang, because `BitCast` is
//!   the event the three RSTI mechanisms treat differently (§4.8);
//! * `malloc` is a first-class instruction returning a raw (unsigned)
//!   `void*`, like a call into uninstrumented libc.

use crate::ast::*;
use crate::error::CompileError;
use crate::parser::parse;
use rsti_ir::{
    BinOp, BlockId, CmpOp, DebugLoc, FieldDef, FuncId, FuncSig, FunctionBuilder, GlobalDef,
    GlobalId, GlobalInit, Module, Operand, Scope, StructDef, Type, TypeId, TypeTable, ValueId,
    VarInfo, VarKind,
};
use std::collections::HashMap;

/// Compiles MiniC source text into a verified IR [`Module`].
///
/// # Errors
/// Returns the first lexical, syntactic, or semantic error.
pub fn compile(src: &str, name: &str) -> Result<Module, CompileError> {
    let tel = rsti_telemetry::global();
    let items = {
        let _span = tel.span(rsti_telemetry::Phase::Parse);
        parse(src)?
    };
    let _span = tel.span(rsti_telemetry::Phase::Lower);
    let mut lower = Lower { module: Module::new(name), env: Env::default(), locals: Locals::default() };
    lower.run(&items)?;
    debug_assert!(
        rsti_ir::verify_module(&lower.module).is_ok(),
        "frontend produced ill-formed IR: {:#?}",
        rsti_ir::verify_module(&lower.module).unwrap_err()
    );
    Ok(lower.module)
}

/// Resolves a syntactic type against the type table.
fn resolve_type(
    types: &mut TypeTable,
    t: &AstType,
    line: u32,
) -> Result<TypeId, CompileError> {
    Ok(match t {
        AstType::Void => types.void(),
        AstType::Bool => types.bool(),
        AstType::Char => types.i8(),
        AstType::Short => types.i16(),
        AstType::Int => types.i32(),
        AstType::Long => types.i64(),
        AstType::Double => types.f64(),
        AstType::Struct(name) => {
            let sid = types
                .struct_by_name(name)
                .ok_or_else(|| CompileError::new(line, format!("unknown struct `{name}`")))?;
            types.intern(Type::Struct(sid))
        }
        AstType::Ptr(inner) => {
            let p = resolve_type(types, inner, line)?;
            types.ptr(p)
        }
        AstType::Array(elem, n) => {
            let e = resolve_type(types, elem, line)?;
            types.array(e, *n)
        }
        AstType::FuncPtr { ret, params } => {
            let r = resolve_type(types, ret, line)?;
            let ps = params
                .iter()
                .map(|p| resolve_type(types, p, line))
                .collect::<Result<Vec<_>, _>>()?;
            let f = types.func(FuncSig::new(r, ps));
            types.ptr(f)
        }
    })
}

/// Module-level symbol environment (kept apart from [`Module`] so function
/// lowering can borrow both disjointly), keyed by names borrowed from the
/// AST.
#[derive(Default)]
struct Env<'a> {
    funcs: HashMap<&'a str, FuncId>,
    globals: HashMap<&'a str, (GlobalId, TypeId, bool)>,
}

struct Lower<'a> {
    module: Module,
    env: Env<'a>,
    /// Reused by every function body.
    locals: Locals<'a>,
}

/// A typed rvalue.
#[derive(Debug, Clone)]
struct TV {
    op: Operand,
    ty: TypeId,
}

/// A typed lvalue: the address holding a value of type `ty`.
#[derive(Debug, Clone)]
struct LV {
    addr: Operand,
    ty: TypeId,
    is_const: bool,
}

/// Where a call's signature lives: a declared function's, or a function
/// type's (for calls through a pointer).
#[derive(Clone, Copy)]
enum SigOf {
    Func(FuncId),
    Type(TypeId),
}

struct LocalSym {
    slot: ValueId,
    ty: TypeId,
    is_const: bool,
}

/// The block-scoped locals of the function being lowered: every live
/// binding on one stack, each name mapped to its innermost binding.
#[derive(Default)]
struct Locals<'a> {
    /// Live bindings in declaration order, each with the index of the
    /// binding of the same name it shadows.
    stack: Vec<(&'a str, LocalSym, Option<u32>)>,
    /// Name → index in `stack` of its innermost live binding.
    innermost: HashMap<&'a str, u32>,
    /// `stack.len()` when each open scope began.
    marks: Vec<usize>,
}

impl<'a> Locals<'a> {
    fn open(&mut self) {
        self.marks.push(self.stack.len());
    }

    /// Ends the innermost scope, unshadowing what its bindings shadowed.
    fn close(&mut self) {
        let mark = self.marks.pop().expect("a scope is open");
        for (name, _, shadowed) in self.stack.drain(mark..).rev() {
            match shadowed {
                Some(i) => self.innermost.insert(name, i),
                None => self.innermost.remove(name),
            };
        }
    }

    /// Binds `name` in the innermost scope; `false` when that scope already
    /// binds it.
    fn declare(&mut self, name: &'a str, sym: LocalSym) -> bool {
        let mark = *self.marks.last().expect("a scope is open");
        let shadowed = self.innermost.get(name).copied();
        if shadowed.is_some_and(|i| i as usize >= mark) {
            return false;
        }
        self.innermost.insert(name, self.stack.len() as u32);
        self.stack.push((name, sym, shadowed));
        true
    }

    fn get(&self, name: &str) -> Option<&LocalSym> {
        self.innermost.get(name).map(|&i| &self.stack[i as usize].1)
    }
}

impl<'a> Lower<'a> {
    fn run(&mut self, items: &'a [Item]) -> Result<(), CompileError> {
        // Pass 1: declare struct names (allows self-reference), then fields.
        for item in items {
            if let Item::Struct { name, line, .. } = item {
                if self.module.types.struct_by_name(name).is_some() {
                    return Err(CompileError::new(*line, format!("duplicate struct `{name}`")));
                }
                self.module
                    .types
                    .declare_struct(StructDef { name: clone_name(name), fields: vec![] });
            }
        }
        for item in items {
            if let Item::Struct { name, fields, .. } = item {
                let mut defs = Vec::with_capacity(fields.len());
                for f in fields {
                    let ty = resolve_type(&mut self.module.types, &f.ty, f.line)?;
                    defs.push(FieldDef { name: clone_name(&f.name), ty, is_const: f.is_const });
                }
                let sid = self.module.types.struct_by_name(name).expect("declared above");
                self.module.types.struct_def_mut(sid).fields = defs;
            }
        }
        // A struct holding itself by value has no size (C rejects the field
        // as an incomplete type); the id check's sizing pass finds it.
        if let Err(errs) = rsti_ir::check_ids(&self.module, []) {
            let msg = &errs[0].msg;
            let line = items.iter().find_map(|item| match item {
                Item::Struct { name, line, .. } if msg.contains(&format!("`{name}`")) => Some(*line),
                _ => None,
            });
            return Err(CompileError::new(line.unwrap_or(0), msg.clone()));
        }

        // Pass 2: declare functions (so bodies can forward-reference).
        for item in items {
            if let Item::Func { ret, name, params, is_extern, line, body } = item {
                if self.env.funcs.contains_key(&**name) {
                    return Err(CompileError::new(*line, format!("duplicate function `{name}`")));
                }
                let r = resolve_type(&mut self.module.types, ret, *line)?;
                let ps = params
                    .iter()
                    .map(|p| resolve_type(&mut self.module.types, &p.ty, p.line))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut sig = FuncSig::new(r, ps);
                // Extern declarations behave like C prototypes with varargs
                // laxity only when declared with empty parameter list.
                sig.varargs = *is_extern && params.is_empty();
                let fid = self.module.declare_func(
                    clone_name(name),
                    sig,
                    *is_extern && body.is_none(),
                );
                self.env.funcs.insert(name, fid);
            }
        }

        // Pass 3: globals.
        for item in items {
            if let Item::Global { ty, name, is_const, init, line } = item {
                self.lower_global(ty, name, *is_const, init.as_ref(), *line)?;
            }
        }

        // Pass 4: function bodies.
        for item in items {
            if let Item::Func { name, params, body: Some(body), .. } = item {
                let fid = self.env.funcs[&**name];
                self.lower_body(fid, params, body)?;
            }
        }
        Ok(())
    }

    fn lower_global(
        &mut self,
        ty: &AstType,
        name: &'a str,
        is_const: bool,
        init: Option<&Expr>,
        line: u32,
    ) -> Result<(), CompileError> {
        if self.env.globals.contains_key(name) {
            return Err(CompileError::new(line, format!("duplicate global `{name}`")));
        }
        let tid = resolve_type(&mut self.module.types, ty, line)?;
        let ginit = match init {
            None => GlobalInit::Zero,
            Some(Expr::IntLit(v, _)) => GlobalInit::Int(*v),
            Some(Expr::CharLit(c, _)) => GlobalInit::Int(*c as i64),
            Some(Expr::BoolLit(b, _)) => GlobalInit::Int(*b as i64),
            Some(Expr::Null(_)) => GlobalInit::Zero,
            Some(Expr::StrLit(s, _)) => GlobalInit::Str(self.module.intern_str(s.as_str())),
            Some(Expr::Var(f, l)) => {
                let fid = self.env.funcs.get(&**f).ok_or_else(|| {
                    CompileError::new(*l, format!("global initializer must be constant or a function name, `{f}` is neither"))
                })?;
                GlobalInit::FuncAddr(*fid)
            }
            Some(e) => {
                return Err(CompileError::new(
                    e.line(),
                    "global initializers must be constants",
                ))
            }
        };
        let var = self.module.add_var(VarInfo {
            name: clone_name(name),
            ty: tid,
            scope: Scope::Module,
            is_const,
            kind: VarKind::Global,
            line,
        });
        let gid = GlobalId(self.module.globals.len() as u32);
        self.module.globals.push(GlobalDef {
            name: clone_name(name),
            ty: tid,
            var,
            init: ginit,
        });
        self.env.globals.insert(name, (gid, tid, is_const));
        Ok(())
    }

    fn lower_body(
        &mut self,
        fid: FuncId,
        params: &'a [Param],
        body: &'a Block,
    ) -> Result<(), CompileError> {
        let env = &self.env;
        let locals = &mut self.locals;
        // The parameters' scope; the body block opens its own inside it.
        locals.open();
        let ret_ty = self.module.funcs[fid.0 as usize].sig.ret;
        let b = FunctionBuilder::new(&mut self.module, fid);
        let scope = Scope::Function(fid.0);
        let mut fl = FnLower {
            b,
            env,
            scope,
            ret_ty,
            locals,
            loops: Vec::new(),
        };

        // Spill parameters into allocas so they are addressable, mutable,
        // and visible to the instrumentation pass as ordinary stores.
        for (i, p) in params.iter().enumerate() {
            fl.b.set_loc(DebugLoc::new(scope, p.line));
            let ty = resolve_type(&mut fl.b.module.types, &p.ty, p.line)?;
            let var = fl.b.module.add_var(VarInfo {
                name: clone_name(&p.name),
                ty,
                scope,
                is_const: p.is_const,
                kind: VarKind::Param,
                line: p.line,
            });
            fl.b.set_param_var(i, var);
            let slot = fl.b.alloca(ty, Some(var));
            let pv = fl.b.param(i);
            fl.b.store(pv, slot);
            fl.declare_local(&p.name, LocalSym { slot, ty, is_const: p.is_const }, p.line)?;
        }

        fl.block(body)?;

        // Fall-through return.
        if !fl.b.current_terminated() {
            let void = fl.b.module.types.void();
            if ret_ty == void {
                fl.b.ret(None);
            } else if fl.b.module.types.is_ptr(ret_ty) {
                fl.b.ret(Some(Operand::Null(ret_ty)));
            } else if ret_ty == fl.b.module.types.f64() {
                fl.b.ret(Some(Operand::float(0.0, ret_ty)));
            } else {
                fl.b.ret(Some(Operand::ConstInt(0, ret_ty)));
            }
        }
        fl.b.finish();
        fl.locals.close();
        Ok(())
    }
}

fn clone_name(s: &str) -> String {
    s.to_string()
}

struct FnLower<'m, 'a> {
    b: FunctionBuilder<'m>,
    env: &'m Env<'a>,
    scope: Scope,
    ret_ty: TypeId,
    locals: &'m mut Locals<'a>,
    loops: Vec<(BlockId, BlockId)>, // (continue target, break target)
}

impl<'a> FnLower<'_, 'a> {
    fn declare_local(
        &mut self,
        name: &'a str,
        sym: LocalSym,
        line: u32,
    ) -> Result<(), CompileError> {
        if self.locals.declare(name, sym) {
            Ok(())
        } else {
            Err(CompileError::new(line, format!("duplicate variable `{name}`")))
        }
    }

    fn lookup_local(&self, name: &str) -> Option<&LocalSym> {
        self.locals.get(name)
    }

    fn numeric_rank(&self, ty: TypeId) -> Option<u8> {
        let t = self.b.module.types.get(ty);
        Some(match t {
            Type::Bool => 0,
            Type::I8 => 1,
            Type::I16 => 2,
            Type::I32 => 3,
            Type::I64 => 4,
            Type::F64 => 5,
            _ => return None,
        })
    }

    /// Converts `tv` to `want`, inserting `Convert` for numerics and
    /// `BitCast` for pointer/pointer (the implicit conversions Clang
    /// materialises in IR).
    fn coerce(&mut self, tv: TV, want: TypeId, line: u32) -> Result<Operand, CompileError> {
        if tv.ty == want {
            return Ok(tv.op);
        }
        let types = &self.b.module.types;
        let src_ptr = types.is_ptr(tv.ty);
        let dst_ptr = types.is_ptr(want);
        if let Operand::Null(_) = tv.op {
            if dst_ptr {
                return Ok(Operand::Null(want));
            }
        }
        if src_ptr && dst_ptr {
            return Ok(self.b.bitcast(tv.op, want).into());
        }
        if self.numeric_rank(tv.ty).is_some() && self.numeric_rank(want).is_some() {
            return Ok(self.b.convert(tv.op, want).into());
        }
        Err(CompileError::new(
            line,
            format!(
                "cannot convert `{}` to `{}`",
                self.b.module.types.display(tv.ty),
                self.b.module.types.display(want)
            ),
        ))
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self, blk: &'a Block) -> Result<(), CompileError> {
        self.locals.open();
        for s in &blk.stmts {
            if self.b.current_terminated() {
                break; // dead code after return/break
            }
            self.stmt(s)?;
        }
        self.locals.close();
        Ok(())
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Decl { ty, name, is_const, init, line } => {
                self.b.set_loc(DebugLoc::new(self.scope, *line));
                let tid = resolve_type(&mut self.b.module.types, ty, *line)?;
                let var = self.b.module.add_var(VarInfo {
                    name: clone_name(name),
                    ty: tid,
                    scope: self.scope,
                    is_const: *is_const,
                    kind: VarKind::Local,
                    line: *line,
                });
                let slot = self.b.alloca(tid, Some(var));
                if let Some(e) = init {
                    let v = self.expr(e)?;
                    let v = self.coerce(v, tid, *line)?;
                    self.b.store(v, slot);
                }
                self.declare_local(name, LocalSym { slot, ty: tid, is_const: *is_const }, *line)
            }
            Stmt::Expr(e) => {
                self.b.set_loc(DebugLoc::new(self.scope, e.line()));
                self.expr(e).map(|_| ())
            }
            Stmt::Assign { target, value, line } => {
                self.b.set_loc(DebugLoc::new(self.scope, *line));
                let lv = self.lvalue(target)?;
                if lv.is_const {
                    return Err(CompileError::new(*line, "assignment to const variable"));
                }
                let v = self.expr(value)?;
                let v = self.coerce(v, lv.ty, *line)?;
                self.b.store(v, lv.addr);
                Ok(())
            }
            Stmt::If { cond, then_blk, else_blk, line } => {
                self.b.set_loc(DebugLoc::new(self.scope, *line));
                let c = self.cond_value(cond)?;
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join = self.b.new_block();
                self.b.cond_br(c, then_bb, else_bb);
                self.b.switch_to(then_bb);
                self.block(then_blk)?;
                if !self.b.current_terminated() {
                    self.b.br(join);
                }
                self.b.switch_to(else_bb);
                if let Some(e) = else_blk {
                    self.block(e)?;
                }
                if !self.b.current_terminated() {
                    self.b.br(join);
                }
                self.b.switch_to(join);
                Ok(())
            }
            Stmt::While { cond, body, line } => {
                self.b.set_loc(DebugLoc::new(self.scope, *line));
                let head = self.b.new_block();
                let body_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(head);
                self.b.switch_to(head);
                let c = self.cond_value(cond)?;
                self.b.cond_br(c, body_bb, exit);
                self.b.switch_to(body_bb);
                self.loops.push((head, exit));
                self.block(body)?;
                self.loops.pop();
                if !self.b.current_terminated() {
                    self.b.br(head);
                }
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::DoWhile { cond, body, line } => {
                self.b.set_loc(DebugLoc::new(self.scope, *line));
                let body_bb = self.b.new_block();
                let check = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(body_bb);
                self.b.switch_to(body_bb);
                self.loops.push((check, exit));
                self.block(body)?;
                self.loops.pop();
                if !self.b.current_terminated() {
                    self.b.br(check);
                }
                self.b.switch_to(check);
                let c = self.cond_value(cond)?;
                self.b.cond_br(c, body_bb, exit);
                self.b.switch_to(exit);
                Ok(())
            }
            Stmt::For { init, cond, step, body, line } => {
                self.b.set_loc(DebugLoc::new(self.scope, *line));
                self.locals.open(); // for-scope for the decl
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let head = self.b.new_block();
                let body_bb = self.b.new_block();
                let step_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.br(head);
                self.b.switch_to(head);
                match cond {
                    Some(c) => {
                        let cv = self.cond_value(c)?;
                        self.b.cond_br(cv, body_bb, exit);
                    }
                    None => self.b.br(body_bb),
                }
                self.b.switch_to(body_bb);
                self.loops.push((step_bb, exit));
                self.block(body)?;
                self.loops.pop();
                if !self.b.current_terminated() {
                    self.b.br(step_bb);
                }
                self.b.switch_to(step_bb);
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                self.b.br(head);
                self.b.switch_to(exit);
                self.locals.close();
                Ok(())
            }
            Stmt::Return(v, line) => {
                self.b.set_loc(DebugLoc::new(self.scope, *line));
                let void = self.b.module.types.void();
                match v {
                    None => {
                        if self.ret_ty != void {
                            return Err(CompileError::new(*line, "missing return value"));
                        }
                        self.b.ret(None);
                    }
                    Some(e) => {
                        if self.ret_ty == void {
                            return Err(CompileError::new(*line, "void function returns a value"));
                        }
                        let tv = self.expr(e)?;
                        let op = self.coerce(tv, self.ret_ty, *line)?;
                        self.b.ret(Some(op));
                    }
                }
                Ok(())
            }
            Stmt::Break(line) => {
                let &(_, exit) = self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::new(*line, "break outside loop"))?;
                self.b.br(exit);
                Ok(())
            }
            Stmt::Continue(line) => {
                let &(cont, _) = self
                    .loops
                    .last()
                    .ok_or_else(|| CompileError::new(*line, "continue outside loop"))?;
                self.b.br(cont);
                Ok(())
            }
            Stmt::Block(b) => self.block(b),
        }
    }

    /// Lowers an expression used as a branch condition into a `bool`.
    fn cond_value(&mut self, e: &Expr) -> Result<Operand, CompileError> {
        let tv = self.expr(e)?;
        let bty = self.b.module.types.bool();
        if tv.ty == bty {
            return Ok(tv.op);
        }
        // C truthiness: nonzero / non-null.
        if self.b.module.types.is_ptr(tv.ty) {
            let null = Operand::Null(tv.ty);
            return Ok(self.b.cmp(CmpOp::Ne, tv.op, null).into());
        }
        if self.numeric_rank(tv.ty).is_some() {
            let zero = if tv.ty == self.b.module.types.f64() {
                Operand::float(0.0, tv.ty)
            } else {
                Operand::ConstInt(0, tv.ty)
            };
            return Ok(self.b.cmp(CmpOp::Ne, tv.op, zero).into());
        }
        Err(CompileError::new(e.line(), "condition is not scalar"))
    }

    // ---- lvalues ----------------------------------------------------------

    fn lvalue(&mut self, e: &Expr) -> Result<LV, CompileError> {
        match e {
            Expr::Var(name, line) => {
                if let Some(sym) = self.lookup_local(name) {
                    return Ok(LV {
                        addr: sym.slot.into(),
                        ty: sym.ty,
                        is_const: sym.is_const,
                    });
                }
                if let Some(&(gid, ty, is_const)) = self.env.globals.get(&**name) {
                    let pty = self.b.module.types.ptr(ty);
                    return Ok(LV { addr: Operand::GlobalAddr(gid, pty), ty, is_const });
                }
                Err(CompileError::new(*line, format!("unknown variable `{name}`")))
            }
            Expr::Unary { op: UnOp::Deref, expr, line } => {
                let tv = self.expr(expr)?;
                let pointee = self.b.module.types.pointee(tv.ty).ok_or_else(|| {
                    CompileError::new(*line, "dereference of non-pointer")
                })?;
                Ok(LV { addr: tv.op, ty: pointee, is_const: false })
            }
            Expr::Member { base, field, arrow, line } => {
                let (base_addr, sid) = if *arrow {
                    let tv = self.expr(base)?;
                    let pointee = self.b.module.types.pointee(tv.ty).ok_or_else(|| {
                        CompileError::new(*line, "`->` on non-pointer")
                    })?;
                    let Type::Struct(sid) = *self.b.module.types.get(pointee) else {
                        return Err(CompileError::new(*line, "`->` on non-struct pointer"));
                    };
                    (tv.op, sid)
                } else {
                    let lv = self.lvalue(base)?;
                    let Type::Struct(sid) = *self.b.module.types.get(lv.ty) else {
                        return Err(CompileError::new(*line, "`.` on non-struct"));
                    };
                    (lv.addr, sid)
                };
                let def = self.b.module.types.struct_def(sid);
                let idx = def.field_index(field).ok_or_else(|| {
                    CompileError::new(
                        *line,
                        format!("no field `{field}` in struct {}", def.name),
                    )
                })?;
                let fdef = &def.fields[idx];
                let (fty, fconst) = (fdef.ty, fdef.is_const);
                let fa = self.b.field_addr(base_addr, sid, idx);
                Ok(LV { addr: fa.into(), ty: fty, is_const: fconst })
            }
            Expr::Index { base, index, line } => {
                let idx = self.expr(index)?;
                let i64t = self.b.module.types.i64();
                let idx = self.coerce(idx, i64t, *line)?;
                // Array variable: index its storage. Pointer: index through
                // its value.
                let base_info = self.try_lvalue_array(base)?;
                if let Some((arr_addr, elem)) = base_info {
                    let ea = self.b.index_addr(arr_addr, idx, elem);
                    return Ok(LV { addr: ea.into(), ty: elem, is_const: false });
                }
                let tv = self.expr(base)?;
                let pointee = self.b.module.types.pointee(tv.ty).ok_or_else(|| {
                    CompileError::new(*line, "indexing a non-pointer")
                })?;
                let ea = self.b.index_addr(tv.op, idx, pointee);
                Ok(LV { addr: ea.into(), ty: pointee, is_const: false })
            }
            other => Err(CompileError::new(other.line(), "expression is not assignable")),
        }
    }

    /// When `base` is an lvalue of array type, returns (address of array,
    /// element type) — `arr[i]` then indexes the storage directly.
    fn try_lvalue_array(&mut self, base: &Expr) -> Result<Option<(Operand, TypeId)>, CompileError> {
        let is_array_lv = match base {
            Expr::Var(name, _) => self
                .lookup_local(name)
                .map(|s| matches!(self.b.module.types.get(s.ty), Type::Array(..)))
                .or_else(|| {
                    self.env.globals.get(&**name).map(|&(_, ty, _)| {
                        matches!(self.b.module.types.get(ty), Type::Array(..))
                    })
                })
                .unwrap_or(false),
            Expr::Member { .. } => {
                // field of array type — resolve via lvalue and inspect
                // (cheap: we re-lower below only when it is an array).
                false
            }
            _ => false,
        };
        if !is_array_lv {
            return Ok(None);
        }
        let lv = self.lvalue(base)?;
        let Type::Array(elem, _) = *self.b.module.types.get(lv.ty) else {
            return Ok(None);
        };
        Ok(Some((lv.addr, elem)))
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<TV, CompileError> {
        match e {
            Expr::IntLit(v, _) => {
                let t = self.b.module.types.i32();
                Ok(TV { op: Operand::ConstInt(*v, t), ty: t })
            }
            Expr::FloatLit(v, _) => {
                let t = self.b.module.types.f64();
                Ok(TV { op: Operand::float(*v, t), ty: t })
            }
            Expr::CharLit(c, _) => {
                let t = self.b.module.types.i8();
                Ok(TV { op: Operand::ConstInt(*c as i64, t), ty: t })
            }
            Expr::BoolLit(v, _) => {
                let t = self.b.module.types.bool();
                Ok(TV { op: Operand::ConstInt(*v as i64, t), ty: t })
            }
            Expr::StrLit(s, _) => {
                let sid = self.b.module.intern_str(s.as_str());
                let t = self.b.module.types.char_ptr();
                Ok(TV { op: Operand::Str(sid, t), ty: t })
            }
            Expr::Null(_) => {
                let t = self.b.module.types.void_ptr();
                Ok(TV { op: Operand::Null(t), ty: t })
            }
            Expr::Sizeof(t, line) => {
                let tid = resolve_type(&mut self.b.module.types, t, *line)?;
                let sz = self.b.module.types.size_of(tid);
                let i64t = self.b.module.types.i64();
                Ok(TV { op: Operand::ConstInt(sz as i64, i64t), ty: i64t })
            }
            Expr::Var(name, line) => {
                if let Some(sym) = self.lookup_local(name) {
                    let (slot, ty) = (sym.slot, sym.ty);
                    // Arrays decay to a pointer to their first element.
                    if let Type::Array(elem, _) = *self.b.module.types.get(ty) {
                        let zero = Operand::ConstInt(0, self.b.module.types.i64());
                        let pa = self.b.index_addr(slot, zero, elem);
                        let pty = self.b.module.types.ptr(elem);
                        let cast = self.b.bitcast(pa, pty);
                        return Ok(TV { op: cast.into(), ty: pty });
                    }
                    let v = self.b.load(slot, ty);
                    return Ok(TV { op: v.into(), ty });
                }
                if let Some(&(gid, ty, _)) = self.env.globals.get(&**name) {
                    let pty = self.b.module.types.ptr(ty);
                    if let Type::Array(elem, _) = *self.b.module.types.get(ty) {
                        let zero = Operand::ConstInt(0, self.b.module.types.i64());
                        let pa =
                            self.b.index_addr(Operand::GlobalAddr(gid, pty), zero, elem);
                        let ety = self.b.module.types.ptr(elem);
                        let cast = self.b.bitcast(pa, ety);
                        return Ok(TV { op: cast.into(), ty: ety });
                    }
                    let v = self.b.load(Operand::GlobalAddr(gid, pty), ty);
                    return Ok(TV { op: v.into(), ty });
                }
                if let Some(&fid) = self.env.funcs.get(&**name) {
                    let sig = self.b.module.funcs[fid.0 as usize].sig.clone();
                    let fty = self.b.module.types.func(sig);
                    let pty = self.b.module.types.ptr(fty);
                    return Ok(TV { op: Operand::FuncAddr(fid, pty), ty: pty });
                }
                Err(CompileError::new(*line, format!("unknown identifier `{name}`")))
            }
            Expr::Unary { op, expr, line } => self.unary(*op, expr, *line),
            Expr::Binary { op, operands, line } => self.binary(*op, &operands.0, &operands.1, *line),
            Expr::Call { callee, args, line } => self.call(callee, args, *line),
            Expr::Member { .. } | Expr::Index { .. } => {
                let lv = self.lvalue(e)?;
                let v = self.b.load(lv.addr, lv.ty);
                Ok(TV { op: v.into(), ty: lv.ty })
            }
            Expr::Cast { ty, expr, line } => {
                let tv = self.expr(expr)?;
                let want = resolve_type(&mut self.b.module.types, ty, *line)?;
                if tv.ty == want {
                    return Ok(tv);
                }
                let sp = self.b.module.types.is_ptr(tv.ty);
                let dp = self.b.module.types.is_ptr(want);
                if sp && dp {
                    if let Operand::Null(_) = tv.op {
                        return Ok(TV { op: Operand::Null(want), ty: want });
                    }
                    let c = self.b.bitcast(tv.op, want);
                    return Ok(TV { op: c.into(), ty: want });
                }
                if self.numeric_rank(tv.ty).is_some() && self.numeric_rank(want).is_some() {
                    let c = self.b.convert(tv.op, want);
                    return Ok(TV { op: c.into(), ty: want });
                }
                Err(CompileError::new(
                    *line,
                    format!(
                        "unsupported cast from `{}` to `{}`",
                        self.b.module.types.display(tv.ty),
                        self.b.module.types.display(want)
                    ),
                ))
            }
        }
    }

    fn unary(&mut self, op: UnOp, inner: &Expr, line: u32) -> Result<TV, CompileError> {
        match op {
            UnOp::Neg => {
                let tv = self.expr(inner)?;
                if self.numeric_rank(tv.ty).is_none() {
                    return Err(CompileError::new(line, "negation of non-numeric"));
                }
                let zero = if tv.ty == self.b.module.types.f64() {
                    Operand::float(0.0, tv.ty)
                } else {
                    Operand::ConstInt(0, tv.ty)
                };
                let r = self.b.bin(BinOp::Sub, zero, tv.op, tv.ty);
                Ok(TV { op: r.into(), ty: tv.ty })
            }
            UnOp::Not => {
                let c = self.cond_value(inner)?;
                let bty = self.b.module.types.bool();
                let t = Operand::ConstInt(0, bty);
                let r = self.b.cmp(CmpOp::Eq, c, t);
                Ok(TV { op: r.into(), ty: bty })
            }
            UnOp::Deref => {
                let tv = self.expr(inner)?;
                let pointee = self
                    .b
                    .module
                    .types
                    .pointee(tv.ty)
                    .ok_or_else(|| CompileError::new(line, "dereference of non-pointer"))?;
                if pointee == self.b.module.types.void() {
                    return Err(CompileError::new(line, "dereference of void*"));
                }
                let v = self.b.load(tv.op, pointee);
                Ok(TV { op: v.into(), ty: pointee })
            }
            UnOp::AddrOf => {
                // &func yields the function pointer itself.
                if let Expr::Var(name, _) = inner {
                    if self.lookup_local(name).is_none()
                        && !self.env.globals.contains_key(&**name)
                    {
                        if let Some(&fid) = self.env.funcs.get(&**name) {
                            let sig = self.b.module.funcs[fid.0 as usize].sig.clone();
                            let fty = self.b.module.types.func(sig);
                            let pty = self.b.module.types.ptr(fty);
                            return Ok(TV { op: Operand::FuncAddr(fid, pty), ty: pty });
                        }
                    }
                }
                let lv = self.lvalue(inner)?;
                let pty = self.b.module.types.ptr(lv.ty);
                // The lvalue address operand may be typed `T*` already
                // (alloca result); re-type via bitcast only when needed.
                let aty = self.b.operand_type(&lv.addr);
                if aty == pty {
                    Ok(TV { op: lv.addr, ty: pty })
                } else {
                    let c = self.b.bitcast(lv.addr, pty);
                    Ok(TV { op: c.into(), ty: pty })
                }
            }
        }
    }

    fn binary(
        &mut self,
        op: BinOpAst,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<TV, CompileError> {
        let bty = self.b.module.types.bool();
        match op {
            BinOpAst::LogAnd | BinOpAst::LogOr => {
                // Short-circuit via a temporary bool slot.
                let slot = self.b.alloca(bty, None);
                let lv = self.cond_value(lhs)?;
                self.b.store(lv.clone(), slot);
                let rhs_bb = self.b.new_block();
                let join = self.b.new_block();
                if op == BinOpAst::LogAnd {
                    self.b.cond_br(lv, rhs_bb, join);
                } else {
                    self.b.cond_br(lv, join, rhs_bb);
                }
                self.b.switch_to(rhs_bb);
                let rv = self.cond_value(rhs)?;
                self.b.store(rv, slot);
                self.b.br(join);
                self.b.switch_to(join);
                let out = self.b.load(slot, bty);
                Ok(TV { op: out.into(), ty: bty })
            }
            BinOpAst::Eq | BinOpAst::Ne | BinOpAst::Lt | BinOpAst::Le | BinOpAst::Gt
            | BinOpAst::Ge => {
                let a = self.expr(lhs)?;
                let b = self.expr(rhs)?;
                let cmp_op = match op {
                    BinOpAst::Eq => CmpOp::Eq,
                    BinOpAst::Ne => CmpOp::Ne,
                    BinOpAst::Lt => CmpOp::Lt,
                    BinOpAst::Le => CmpOp::Le,
                    BinOpAst::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                let (ao, bo) = self.unify(a, b, line)?;
                let r = self.b.cmp(cmp_op, ao, bo);
                Ok(TV { op: r.into(), ty: bty })
            }
            _ => {
                let a = self.expr(lhs)?;
                let bb = self.expr(rhs)?;
                // Pointer arithmetic: ptr ± int.
                let a_ptr = self.b.module.types.is_ptr(a.ty);
                let b_ptr = self.b.module.types.is_ptr(bb.ty);
                if a_ptr && !b_ptr && matches!(op, BinOpAst::Add | BinOpAst::Sub) {
                    let pointee = self.b.module.types.pointee(a.ty).expect("checked");
                    let i64t = self.b.module.types.i64();
                    let mut idx = self.coerce(bb, i64t, line)?;
                    if op == BinOpAst::Sub {
                        let z = Operand::ConstInt(0, i64t);
                        idx = self.b.bin(BinOp::Sub, z, idx, i64t).into();
                    }
                    let r = self.b.index_addr(a.op, idx, pointee);
                    return Ok(TV { op: r.into(), ty: a.ty });
                }
                if a_ptr || b_ptr {
                    return Err(CompileError::new(line, "unsupported pointer arithmetic"));
                }
                let bin_op = match op {
                    BinOpAst::Add => BinOp::Add,
                    BinOpAst::Sub => BinOp::Sub,
                    BinOpAst::Mul => BinOp::Mul,
                    BinOpAst::Div => BinOp::Div,
                    BinOpAst::Rem => BinOp::Rem,
                    BinOpAst::BitAnd => BinOp::And,
                    BinOpAst::BitOr => BinOp::Or,
                    BinOpAst::BitXor => BinOp::Xor,
                    BinOpAst::Shl => BinOp::Shl,
                    BinOpAst::Shr => BinOp::Shr,
                    _ => unreachable!("handled above"),
                };
                let ty = self.common_numeric(&a, &bb, line)?;
                let ao = self.coerce(a, ty, line)?;
                let bo = self.coerce(bb, ty, line)?;
                let r = self.b.bin(bin_op, ao, bo, ty);
                Ok(TV { op: r.into(), ty })
            }
        }
    }

    /// Unifies two comparison operands (numeric promotion or pointer/null).
    fn unify(&mut self, a: TV, b: TV, line: u32) -> Result<(Operand, Operand), CompileError> {
        let a_ptr = self.b.module.types.is_ptr(a.ty);
        let b_ptr = self.b.module.types.is_ptr(b.ty);
        if a_ptr && b_ptr {
            let bo = self.coerce(b, a.ty, line)?;
            return Ok((a.op, bo));
        }
        if a_ptr || b_ptr {
            return Err(CompileError::new(line, "comparison of pointer and non-pointer"));
        }
        let ty = self.common_numeric(&a, &b, line)?;
        let ao = self.coerce(a, ty, line)?;
        let bo = self.coerce(b, ty, line)?;
        Ok((ao, bo))
    }

    fn common_numeric(&mut self, a: &TV, b: &TV, line: u32) -> Result<TypeId, CompileError> {
        let ra = self
            .numeric_rank(a.ty)
            .ok_or_else(|| CompileError::new(line, "non-numeric operand"))?;
        let rb = self
            .numeric_rank(b.ty)
            .ok_or_else(|| CompileError::new(line, "non-numeric operand"))?;
        Ok(if ra >= rb { a.ty } else { b.ty })
    }

    fn call(&mut self, callee: &Expr, args: &[Expr], line: u32) -> Result<TV, CompileError> {
        let i64t = self.b.module.types.i64();
        let void = self.b.module.types.void();

        if let Expr::Var(name, _) = callee {
            // Builtins first.
            match &**name {
                "malloc" => {
                    if args.len() != 1 {
                        return Err(CompileError::new(line, "malloc takes one argument"));
                    }
                    let sz = self.expr(&args[0])?;
                    let sz = self.coerce(sz, i64t, line)?;
                    let vp = self.b.module.types.void_ptr();
                    let r = self.b.malloc(sz, vp);
                    return Ok(TV { op: r.into(), ty: vp });
                }
                "free" => {
                    if args.len() != 1 {
                        return Err(CompileError::new(line, "free takes one argument"));
                    }
                    let p = self.expr(&args[0])?;
                    if !self.b.module.types.is_ptr(p.ty) {
                        return Err(CompileError::new(line, "free of non-pointer"));
                    }
                    self.b.free(p.op);
                    let z = Operand::ConstInt(0, i64t);
                    return Ok(TV { op: z, ty: i64t });
                }
                "print_int" => {
                    if args.len() != 1 {
                        return Err(CompileError::new(line, "print_int takes one argument"));
                    }
                    let v = self.expr(&args[0])?;
                    let v = self.coerce(v, i64t, line)?;
                    self.b.print_int(v);
                    let z = Operand::ConstInt(0, i64t);
                    return Ok(TV { op: z, ty: i64t });
                }
                "print_str" => {
                    let Some(Expr::StrLit(s, _)) = args.first() else {
                        return Err(CompileError::new(
                            line,
                            "print_str takes a string literal",
                        ));
                    };
                    let sid = self.b.module.intern_str(s.as_str());
                    self.b.print_str(sid);
                    let z = Operand::ConstInt(0, i64t);
                    return Ok(TV { op: z, ty: i64t });
                }
                _ => {}
            }
            // Direct call to a known function, unless shadowed by a local
            // or global function-pointer variable.
            if self.lookup_local(name).is_none()
                && !self.env.globals.contains_key(&**name)
            {
                if let Some(&fid) = self.env.funcs.get(&**name) {
                    let lowered = self.call_args(SigOf::Func(fid), args, line)?;
                    let r = self.b.call(fid, lowered);
                    let ret = self.b.module.funcs[fid.0 as usize].sig.ret;
                    let ty = if ret == void { i64t } else { ret };
                    let op = match r {
                        Some(v) => v.into(),
                        None => Operand::ConstInt(0, i64t),
                    };
                    return Ok(TV { op, ty });
                }
            }
        }

        // Indirect call through a function-pointer expression.
        let f = self.expr(callee)?;
        let Some(pointee) = self.b.module.types.pointee(f.ty) else {
            return Err(CompileError::new(line, "call of non-function"));
        };
        let Type::Func(sig) = self.b.module.types.get(pointee) else {
            return Err(CompileError::new(line, "call through non-function pointer"));
        };
        let ret = sig.ret;
        let lowered = self.call_args(SigOf::Type(pointee), args, line)?;
        let Type::Func(sig) = self.b.module.types.get(pointee) else {
            unreachable!("checked above");
        };
        let r = self.b.call_indirect(f.op, sig.clone(), lowered);
        let ty = if ret == void { i64t } else { ret };
        let op = match r {
            Some(v) => v.into(),
            None => Operand::ConstInt(0, i64t),
        };
        Ok(TV { op, ty })
    }

    /// The signature a call's arguments are checked against.
    fn sig(&self, of: SigOf) -> &FuncSig {
        match of {
            SigOf::Func(fid) => &self.b.module.funcs[fid.0 as usize].sig,
            SigOf::Type(t) => match self.b.module.types.get(t) {
                Type::Func(sig) => sig,
                _ => unreachable!("a function type"),
            },
        }
    }

    fn call_args(
        &mut self,
        of: SigOf,
        args: &[Expr],
        line: u32,
    ) -> Result<Vec<Operand>, CompileError> {
        let sig = self.sig(of);
        if args.len() < sig.params.len() || (!sig.varargs && args.len() != sig.params.len()) {
            return Err(CompileError::new(
                line,
                format!("expected {} arguments, got {}", sig.params.len(), args.len()),
            ));
        }
        let mut out = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let tv = self.expr(a)?;
            if let Some(&want) = self.sig(of).params.get(i) {
                out.push(self.coerce(tv, want, line)?);
            } else {
                out.push(tv.op); // varargs tail
            }
        }
        Ok(out)
    }
}
