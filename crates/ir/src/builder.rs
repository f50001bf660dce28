//! Convenience builder for constructing IR, used by the MiniC frontend, the
//! instrumentation tests, and the workload generator.
//!
//! Functions are *declared* first ([`Module::declare_func`]) so that bodies
//! may reference each other (forward calls, mutual recursion, function
//! pointers), then *defined* through a [`FunctionBuilder`] which tracks the
//! current block and debug location and assigns fresh [`ValueId`]s with
//! their types.

use crate::debug::{DebugLoc, VarId};
use crate::function::{BasicBlock, BlockId, Function, InstNode, ValueId};
use crate::inst::{BinOp, CmpOp, Inst, Operand, Terminator};
use crate::module::{FuncId, Module, StrId};
use crate::types::{FuncSig, StructId, Type, TypeId};

impl Module {
    /// Declares a function (body added later through [`FunctionBuilder`]).
    /// Parameters receive the first `sig.params.len()` value ids.
    pub fn declare_func(
        &mut self,
        name: impl Into<String>,
        sig: FuncSig,
        is_external: bool,
    ) -> FuncId {
        let params: Vec<(ValueId, Option<VarId>)> = (0..sig.params.len())
            .map(|i| (ValueId(i as u32), None))
            .collect();
        let value_types = sig.params.clone();
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(Function {
            name: name.into(),
            sig,
            params,
            blocks: Vec::new(),
            value_types,
            is_external,
        });
        id
    }
}

/// Builds the body of a previously declared function.
///
/// The builder takes the body (blocks and value types) out of the
/// [`Function`] and leaves its declaration — name, signature, parameters —
/// in the module, so that recursive and mutually recursive calls resolve
/// while the body is under construction; [`FunctionBuilder::finish`] puts
/// the body back. Dropping the builder without calling `finish` leaves the
/// declaration without a body (useful in tests that only need
/// declarations).
pub struct FunctionBuilder<'m> {
    /// The module, available for interning types, strings, and variables.
    pub module: &'m mut Module,
    fid: FuncId,
    blocks: Vec<BasicBlock>,
    value_types: Vec<TypeId>,
    cur: BlockId,
    cur_loc: Option<DebugLoc>,
    /// Instructions emitted into `cur` since the builder last moved to it.
    /// They join the block when the builder moves on or finishes, so a
    /// block written in one go gets one exact-size vector instead of a
    /// growing one.
    open: Vec<InstNode>,
}

/// An unfinished builder hands the parameters' types back to the
/// declaration.
impl Drop for FunctionBuilder<'_> {
    fn drop(&mut self) {
        let f = &mut self.module.funcs[self.fid.0 as usize];
        if f.value_types.is_empty() {
            self.value_types.truncate(f.sig.params.len());
            f.value_types = std::mem::take(&mut self.value_types);
        }
    }
}

impl<'m> FunctionBuilder<'m> {
    /// Starts building `fid`'s body. Creates the entry block (`bb0`).
    ///
    /// # Panics
    /// Panics when the function already has a body or is external.
    pub fn new(module: &'m mut Module, fid: FuncId) -> Self {
        let f = &mut module.funcs[fid.0 as usize];
        assert!(!f.is_external, "cannot build body of external `{}`", f.name);
        assert!(f.blocks.is_empty(), "function `{}` already defined", f.name);
        // The declaration's value table holds the parameters' types.
        let value_types = std::mem::take(&mut f.value_types);
        FunctionBuilder {
            module,
            fid,
            blocks: vec![BasicBlock::new()],
            value_types,
            cur: BlockId(0),
            cur_loc: None,
            open: Vec::new(),
        }
    }

    /// The id of the function under construction.
    pub fn func_id(&self) -> FuncId {
        self.fid
    }

    /// The value bound to parameter `i`.
    pub fn param(&self, i: usize) -> ValueId {
        self.module.funcs[self.fid.0 as usize].params[i].0
    }

    /// Attaches a debug variable to parameter `i`.
    pub fn set_param_var(&mut self, i: usize, var: VarId) {
        self.module.funcs[self.fid.0 as usize].params[i].1 = Some(var);
    }

    /// Sets the debug location attached to subsequently emitted
    /// instructions.
    pub fn set_loc(&mut self, loc: DebugLoc) {
        self.cur_loc = Some(loc);
    }

    /// Creates a new (empty, unterminated) block.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new());
        id
    }

    /// Moves the insertion point to `bb`.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.close();
        self.cur = bb;
    }

    /// Moves the open instructions into the current block.
    fn close(&mut self) {
        let insts = &mut self.blocks[self.cur.0 as usize].insts;
        if insts.is_empty() {
            *insts = self.open.drain(..).collect();
        } else {
            insts.append(&mut self.open);
        }
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Whether the current block already has a real terminator.
    pub fn current_terminated(&self) -> bool {
        !matches!(
            self.blocks[self.cur.0 as usize].term,
            Terminator::Unreachable
        )
    }

    fn fresh(&mut self, ty: TypeId) -> ValueId {
        let id = ValueId(self.value_types.len() as u32);
        self.value_types.push(ty);
        id
    }

    fn push(&mut self, inst: Inst) {
        let loc = self.cur_loc;
        self.open.push(InstNode { inst, loc });
    }

    /// Type of an operand under this function's value table.
    pub fn operand_type(&self, op: &Operand) -> TypeId {
        match op {
            Operand::Value(v) => self.value_types[v.0 as usize],
            Operand::ConstInt(_, t)
            | Operand::ConstFloat(_, t)
            | Operand::Null(t)
            | Operand::FuncAddr(_, t)
            | Operand::GlobalAddr(_, t)
            | Operand::Str(_, t) => *t,
        }
    }

    // ---- instruction emitters -------------------------------------------

    /// `alloca ty` — a stack slot; yields `ty*`.
    pub fn alloca(&mut self, ty: TypeId, var: Option<VarId>) -> ValueId {
        let ptr_ty = self.module.types.ptr(ty);
        let result = self.fresh(ptr_ty);
        self.push(Inst::Alloca { result, ty, var });
        result
    }

    /// `load ty, ptr`.
    pub fn load(&mut self, ptr: impl Into<Operand>, ty: TypeId) -> ValueId {
        let result = self.fresh(ty);
        self.push(Inst::Load { result, ptr: ptr.into(), ty });
        result
    }

    /// `store value, ptr`.
    pub fn store(&mut self, value: impl Into<Operand>, ptr: impl Into<Operand>) {
        self.push(Inst::Store { value: value.into(), ptr: ptr.into() });
    }

    /// Struct-field GEP; yields a pointer to the field.
    pub fn field_addr(
        &mut self,
        base: impl Into<Operand>,
        struct_id: StructId,
        field: usize,
    ) -> ValueId {
        let fty = self.module.types.struct_def(struct_id).fields[field].ty;
        let rty = self.module.types.ptr(fty);
        let result = self.fresh(rty);
        self.push(Inst::FieldAddr { result, base: base.into(), struct_id, field });
        result
    }

    /// Array/pointer-arithmetic GEP; result has the base pointer's type.
    pub fn index_addr(
        &mut self,
        base: impl Into<Operand>,
        index: impl Into<Operand>,
        elem_ty: TypeId,
    ) -> ValueId {
        let base = base.into();
        let bty = self.operand_type(&base);
        // Indexing into an array yields a pointer to the element type.
        let rty = match self.module.types.get(bty).clone() {
            Type::Ptr(p) => match self.module.types.get(p).clone() {
                Type::Array(e, _) => self.module.types.ptr(e),
                _ => bty,
            },
            _ => bty,
        };
        let result = self.fresh(rty);
        self.push(Inst::IndexAddr { result, base, index: index.into(), elem_ty });
        result
    }

    /// `bitcast value to to`.
    pub fn bitcast(&mut self, value: impl Into<Operand>, to: TypeId) -> ValueId {
        let result = self.fresh(to);
        self.push(Inst::BitCast { result, value: value.into(), to });
        result
    }

    /// Numeric conversion.
    pub fn convert(&mut self, value: impl Into<Operand>, to: TypeId) -> ValueId {
        let result = self.fresh(to);
        self.push(Inst::Convert { result, value: value.into(), to });
        result
    }

    /// Binary operation.
    pub fn bin(
        &mut self,
        op: BinOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
        ty: TypeId,
    ) -> ValueId {
        let result = self.fresh(ty);
        self.push(Inst::Bin { result, op, lhs: lhs.into(), rhs: rhs.into(), ty });
        result
    }

    /// Comparison; yields `bool`.
    pub fn cmp(
        &mut self,
        op: CmpOp,
        lhs: impl Into<Operand>,
        rhs: impl Into<Operand>,
    ) -> ValueId {
        let bty = self.module.types.bool();
        let result = self.fresh(bty);
        self.push(Inst::Cmp { result, op, lhs: lhs.into(), rhs: rhs.into() });
        result
    }

    /// Direct call. Returns the result value when the callee returns one.
    pub fn call(&mut self, callee: FuncId, args: Vec<Operand>) -> Option<ValueId> {
        let ret = self.module.funcs[callee.0 as usize].sig.ret;
        let result = if ret == self.module.types.void() {
            None
        } else {
            Some(self.fresh(ret))
        };
        self.push(Inst::Call { result, callee, args });
        result
    }

    /// Indirect call through a function pointer.
    pub fn call_indirect(
        &mut self,
        callee: impl Into<Operand>,
        sig: FuncSig,
        args: Vec<Operand>,
    ) -> Option<ValueId> {
        let result = if sig.ret == self.module.types.void() {
            None
        } else {
            Some(self.fresh(sig.ret))
        };
        self.push(Inst::CallIndirect { result, callee: callee.into(), sig, args });
        result
    }

    /// `malloc(size)`; yields a pointer of `result_ty`.
    pub fn malloc(&mut self, size: impl Into<Operand>, result_ty: TypeId) -> ValueId {
        let result = self.fresh(result_ty);
        self.push(Inst::Malloc { result, size: size.into(), result_ty });
        result
    }

    /// `free(ptr)`.
    pub fn free(&mut self, ptr: impl Into<Operand>) {
        self.push(Inst::Free { ptr: ptr.into() });
    }

    /// Print an integer (observability).
    pub fn print_int(&mut self, value: impl Into<Operand>) {
        self.push(Inst::PrintInt { value: value.into() });
    }

    /// Print a string literal (observability).
    pub fn print_str(&mut self, s: StrId) {
        self.push(Inst::PrintStr { s });
    }

    /// Pushes an arbitrary instruction (instrumentation passes and tests).
    /// The caller is responsible for having allocated the result id via
    /// [`FunctionBuilder::fresh_value`].
    pub fn push_raw(&mut self, inst: Inst) {
        self.push(inst);
    }

    /// Allocates a fresh value of the given type without emitting anything.
    pub fn fresh_value(&mut self, ty: TypeId) -> ValueId {
        self.fresh(ty)
    }

    // ---- terminators -----------------------------------------------------

    fn terminate(&mut self, t: Terminator) {
        let blk = &mut self.blocks[self.cur.0 as usize];
        debug_assert!(
            matches!(blk.term, Terminator::Unreachable),
            "block {} terminated twice in `{}`",
            self.cur,
            self.module.funcs[self.fid.0 as usize].name
        );
        blk.term = t;
        blk.term_loc = self.cur_loc;
    }

    /// Unconditional branch.
    pub fn br(&mut self, bb: BlockId) {
        self.terminate(Terminator::Br(bb));
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: impl Into<Operand>, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::CondBr { cond: cond.into(), then_bb, else_bb });
    }

    /// Return.
    pub fn ret(&mut self, value: Option<Operand>) {
        self.terminate(Terminator::Ret(value));
    }

    /// Installs the finished body back into the module.
    pub fn finish(mut self) -> FuncId {
        self.close();
        let f = &mut self.module.funcs[self.fid.0 as usize];
        f.blocks = std::mem::take(&mut self.blocks);
        f.value_types = std::mem::take(&mut self.value_types);
        self.fid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FuncSig;

    /// Builds `int add1(int x) { return x + 1; }`.
    #[test]
    fn build_simple_function() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let fid = m.declare_func("add1", FuncSig::new(i32t, vec![i32t]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        let x = b.param(0);
        let r = b.bin(BinOp::Add, x, Operand::ConstInt(1, i32t), i32t);
        b.ret(Some(r.into()));
        b.finish();

        let f = m.func(fid);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.inst_count(), 1);
        assert_eq!(f.value_type(r), i32t);
        assert!(matches!(f.blocks[0].term, Terminator::Ret(Some(_))));
    }

    #[test]
    fn alloca_yields_pointer() {
        let mut m = Module::new("t");
        let i32t = m.types.i32();
        let void = m.types.void();
        let fid = m.declare_func("f", FuncSig::new(void, vec![]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        let slot = b.alloca(i32t, None);
        b.store(Operand::ConstInt(7, i32t), slot);
        let v = b.load(slot, i32t);
        b.print_int(v);
        b.ret(None);
        b.finish();
        let f = m.func(fid);
        let pty = f.value_type(slot);
        assert_eq!(m.types.pointee(pty), Some(i32t));
    }

    #[test]
    #[should_panic(expected = "already defined")]
    fn double_definition_panics() {
        let mut m = Module::new("t");
        let void = m.types.void();
        let fid = m.declare_func("f", FuncSig::new(void, vec![]), false);
        let mut b = FunctionBuilder::new(&mut m, fid);
        b.ret(None);
        b.finish();
        let _ = FunctionBuilder::new(&mut m, fid);
    }
}
