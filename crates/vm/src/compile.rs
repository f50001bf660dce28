//! Translation of an image into pre-resolved ops, and the one driver
//! that executes them.
//!
//! [`compile_module`] translates every function, once per image, into one
//! vector of plain [`Op`] values with all per-instruction resolution
//! hoisted to translation time, and [`Vm::exec_op`] runs an op with one
//! `match`, each instruction's runtime rule in one arm:
//!
//! * **operand slots** are pre-resolved — a register index, an immediate,
//!   or an already-laid-out global/string/function address — so executing
//!   an operand is an array load instead of an `Operand` match;
//! * **type layouts are pre-folded** — `Alloca` sizes, `FieldAddr`
//!   offsets, `IndexAddr` element sizes, and each `Load`'s and `Store`'s
//!   [`Width`] become op fields;
//! * **PAC call shapes are pre-computed** — key ids, static modifiers,
//!   site classes, and the enforcement backend are op fields, and every
//!   sign or auth op goes through the one sign rule and the one auth rule
//!   ([`Vm::pa_sign`], [`Vm::pa_auth`]), which hold the only
//!   PAC-in-pointer vs MAC-table split (the loader signs through the same
//!   [`sign`]);
//! * **check sites are numbered** — the walk builds the image's
//!   [`CheckSite`] table ([`CompiledModule::sites`]) and each check op
//!   holds its own site id ([`Op::site`]), which its recorder events, its
//!   failure report and attribution take directly;
//! * **call arguments** live in one slot pool per function, which each
//!   call op references by range;
//! * **terminators are pre-resolved** — `br`/`cond_br` successors and the
//!   `ret` operand become [`CompiledTerm`] slots.
//!
//! A block is the range `at..at + len` of its function's ops, and the same
//! range of its per-op accounting ([`CompiledFunc::charge`]). One driver
//! ([`Vm::drive`]) executes the ops: it direct-threads blocks through
//! branch successors and commits the frame position lazily — only where
//! it is observed. Each block is charged one of two ways:
//!
//! * **block pre-charge** ([`ExecBackend::Compiled`], every observed
//!   run included): the straight-line run and its terminator are charged
//!   up front from per-block cycle prefix sums and — with telemetry on —
//!   per-block opclass totals (a fuel budget that ends inside the block
//!   covers only its first ops), and the unexecuted suffix is rolled back
//!   when an op traps or calls;
//! * **per-op charging** ([`Vm::exec_ops`], [`ExecBackend::Interp`]
//!   alone, which only the parity checks select): every op is
//!   fuel-checked and charged before it runs — the reference the block
//!   pre-charge is held to.
//!
//! The observers read the same run either way. Attribution counts block
//! runs (`attr_run`) and derives its totals from the charge table; the
//! recorder stamps each event with its op's exact cycle ([`Vm::op_cycle`]).
//! The two modes must be *observably identical* — traps and their text,
//! audit records, cycle and instruction totals, telemetry counters,
//! attribution profiles and incidents — which the parity tests, the
//! attribution golden and the dual-mode fuzz oracle check.
//!
//! Translation starts with `rsti_ir::check_ids`, once per image: an image
//! with an id that does not resolve gets no code, only the check's message,
//! and [`Vm::new`] loads it into a VM already trapped with
//! [`Trap::BadProgram`]. Every op is therefore translated against ids that
//! resolve, and only the value shapes a run produces are checked at run
//! time.

use super::*;
use rsti_ir::{BasicBlock, Function, StrId};
use std::cmp::Ordering;

/// What an op tells the driver to do next. Traps travel boxed so the
/// return value fits in registers — the unboxed `Result<_, Trap>` is
/// several words wide and forced a memory round-trip on *every* op,
/// trapping or not.
pub(crate) enum Control {
    /// Fall through to the next op in the block.
    Next,
    /// An internal call, the callee and its arguments waiting in
    /// `Vm::pending_call` and `Vm::call_args` (a payload here slowed every
    /// op's return): the driver pushes the frame after its rollback.
    Call,
    /// The op trapped.
    Trap(Box<Trap>),
}

/// `?` for op rules returning [`Control`]: unwraps a `Result` with a
/// [`Trap`] (or an already boxed one) or routes the trap through the
/// (boxed) control channel.
macro_rules! tri {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(t) => return trapped(t),
        }
    };
}

/// How a per-op block run ended: `Ok` once its terminator is charged, or
/// `Err((to, why))` short of it — op `to - 1` called or trapped (`why`),
/// or the fuel ran out before op `to` — for [`Vm::leave_block`].
type RunEnd = Result<(), (usize, Control)>;

/// Routes a trap through the control channel. Cold and out of line, so
/// that boxing it stays out of the op rules' code.
#[cold]
#[inline(never)]
fn trapped(t: impl Into<Box<Trap>>) -> Control {
    Control::Trap(t.into())
}

/// Per-op accounting charged by the per-op loop, kept out of the ops so
/// the fast path streams only the ops. A function's ops share one table
/// ([`CompiledFunc::charge`]), parallel to its ops.
pub(crate) struct OpCharge {
    /// Cycle cost ([`CostModel::cost`] of the source instruction).
    pub(super) cost: u64,
    /// Cycles of the block's ops before this one: the fast path charges
    /// (and rolls back) any run of ops with two subtractions instead of a
    /// loop.
    before: u64,
    /// Opcode class index, for telemetry's per-op opclass counts.
    class: u8,
}

/// A compiled terminator, executed by [`Vm::exec_term`] on either path.
pub(crate) enum CompiledTerm {
    Br(u32),
    /// Conditional branch on a register — the dominant shape, with the
    /// operand match pre-folded away.
    CondBrReg { v: ValueId, then_bb: u32, else_bb: u32 },
    CondBr { cond: Slot, then_bb: u32, else_bb: u32 },
    Ret(Option<Slot>),
    Unreachable,
}

/// One compiled basic block.
pub(crate) struct CompiledBlock {
    /// The block's ops are `ops[at..at + len]` of its function, and their
    /// accounting the same range of its charge table.
    at: u32,
    len: u32,
    /// Cycles of all of the block's ops, inlined in the block header:
    /// entries at `idx == 0` — every transfer except a call resume —
    /// charge without touching the charge table.
    total_cost: u64,
    /// Ops per opcode class ([`OPCLASS_ORDER`]), terminator excluded: the
    /// fast path's telemetry count for a whole-block entry.
    class_counts: [u32; 6],
    term: CompiledTerm,
}

/// A compiled function body (empty for externals, which can never hold a
/// frame).
pub(crate) struct CompiledFunc {
    pub(super) blocks: Vec<CompiledBlock>,
    /// Every op, block after block.
    pub(super) ops: Vec<Op>,
    /// Every op's accounting, parallel to `ops`.
    pub(super) charge: Vec<OpCharge>,
    /// Every call's argument slots, call after call.
    args: Vec<Slot>,
}

impl CompiledFunc {
    /// The ops of block `cb`.
    #[inline]
    fn ops(&self, cb: &CompiledBlock) -> &[Op] {
        &self.ops[cb.at as usize..][..cb.len as usize]
    }

    /// The accounting of block `cb`'s ops.
    #[inline]
    fn charge(&self, cb: &CompiledBlock) -> &[OpCharge] {
        &self.charge[cb.at as usize..][..cb.len as usize]
    }

    /// Cycles of block `cb`'s ops before op `i`, for `i` up to its length.
    #[inline]
    fn cost_before(&self, cb: &CompiledBlock, i: usize) -> u64 {
        self.charge(cb).get(i).map_or(cb.total_cost, |c| c.before)
    }
}

/// A fully compiled module, cached on the [`Image`].
pub(crate) struct CompiledModule {
    /// The translated bodies, or the id check's first failure for a
    /// malformed image.
    pub(crate) funcs: Result<Vec<CompiledFunc>, String>,
    /// The image's check sites, numbered by the translation walk in
    /// `(func, block, inst)` order — the `rsti_core::check_sites` table,
    /// built once per image. Each check op carries its own id; attribution
    /// and the flight recorder resolve ids here. Empty for a malformed
    /// image.
    pub(crate) sites: Vec<CheckSite>,
    /// Every global's address and every string's address, as operands
    /// were resolved against them and as the loader lays the data out.
    pub(crate) gaddr: Vec<u64>,
    pub(crate) saddr: Vec<u64>,
    /// The globals and strings segment sizes (bytes).
    pub(crate) data_sizes: [u64; 2],
    /// Total compiled blocks (telemetry).
    pub(crate) n_blocks: u64,
}

impl fmt::Debug for CompiledModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompiledModule({} blocks)", self.n_blocks)
    }
}

/// A pre-resolved operand.
#[derive(Clone, Copy)]
pub(crate) enum Slot {
    /// Frame register (generation-checked at read).
    Reg(ValueId),
    /// Immediate: constants, and global/string/function addresses folded
    /// against the module's deterministic layout.
    Imm(RtVal),
}

#[cold]
#[inline(never)]
fn undefined_use(v: ValueId) -> Box<Trap> {
    Box::new(Trap::BadProgram(format!("use of undefined {v}")))
}

/// The silent int coercion of integer `Bin` operands.
#[inline(always)]
fn int_of(v: RtVal) -> i64 {
    match v {
        RtVal::I(i) => i,
        RtVal::P(p) => p as i64,
        RtVal::F(f) => truncate(f),
    }
}

/// `f as i64`, out of line: computed inline, the conversion is evaluated
/// on every integer operand and the result discarded.
#[cold]
#[inline(never)]
fn truncate(f: f64) -> i64 {
    f as i64
}

/// The float coercion of `F64` `Bin` operands, trap text included.
#[inline(always)]
fn float_of(v: RtVal) -> Result<f64, Box<Trap>> {
    match v {
        RtVal::F(f) => Ok(f),
        RtVal::I(i) => Ok(i as f64),
        RtVal::P(_) => Err(bad_program("pointer in float op")),
    }
}

impl Slot {
    #[inline(always)]
    fn read(&self, vm: &Vm<'_>) -> Result<RtVal, Box<Trap>> {
        match self {
            Slot::Reg(v) => vm.reg(*v),
            Slot::Imm(v) => Ok(*v),
        }
    }

    #[inline(always)]
    fn read_ptr(&self, vm: &Vm<'_>) -> Result<u64, Box<Trap>> {
        vm.as_ptr(self.read(vm)?)
    }
}

/// A memory access's width, decided at translation from the slot type.
#[derive(Clone, Copy)]
pub(crate) enum Width {
    /// `bool` and `i8`.
    I8,
    I16,
    I32,
    I64,
    F64,
    Ptr,
    /// Any other type: the access traps.
    Other,
    /// A store through an operand with no pointee type: an integer or a
    /// float writes its natural 8 bytes, a pointer traps as an `i64` slot.
    Shape,
}

/// Pre-folded integer result width (`Bin` and `Convert`). The
/// discriminant of a sign-extending width is its shift amount, so applying
/// one does not branch on the width.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Wrap {
    Bool = 1,
    I8 = 56,
    I16 = 48,
    I32 = 32,
    Pass = 0,
}

impl Wrap {
    #[inline(always)]
    fn apply(self, v: i64) -> i64 {
        if self == Wrap::Bool {
            return (v != 0) as i64;
        }
        let s = self as u32;
        (v << s) >> s
    }
}

/// A call's argument slots: `len` entries from `at` in its function's
/// pool ([`CompiledFunc::args`]).
#[derive(Clone, Copy)]
pub(crate) struct Args {
    at: u32,
    len: u32,
}

impl Args {
    #[inline(always)]
    fn of(self, pool: &[Slot]) -> &[Slot] {
        &pool[self.at as usize..][..self.len as usize]
    }
}

/// One translated instruction. Each variant holds the instruction's
/// pre-resolved operands and folded type decisions; [`Vm::exec_op`] holds
/// its rule. Check ops hold their check-site id (in their [`PaOp`], or
/// `site`).
pub(crate) enum Op {
    /// `size` is the slot's size rounded up to 8 bytes.
    Alloca { result: ValueId, size: u64 },
    /// `ty` is the loaded type, named by the trap of an [`Width::Other`]
    /// load.
    Load { result: ValueId, ptr: Slot, width: Width, ty: TypeId },
    /// `ty` is the slot type (`i64` for [`Width::Shape`]), named by the
    /// trap of a value the slot cannot hold.
    Store { value: Slot, ptr: Slot, width: Width, ty: TypeId },
    FieldAddr { result: ValueId, base: Slot, off: u64 },
    IndexAddr { result: ValueId, base: Slot, index: Slot, size: i64 },
    BitCast { result: ValueId, value: Slot },
    Convert { result: ValueId, value: Slot, to_f64: bool, wrap: Wrap },
    /// Integer arithmetic.
    Bin { result: ValueId, op: BinOp, wrap: Wrap, lhs: Slot, rhs: Slot },
    /// `f64` arithmetic.
    FBin { result: ValueId, op: BinOp, lhs: Slot, rhs: Slot },
    Cmp { result: ValueId, op: CmpOp, lhs: Slot, rhs: Slot },
    /// `ret` is the callee's return type, which an external call's
    /// result takes.
    Call { result: Option<ValueId>, callee: FuncId, external: bool, ret: TypeId, args: Args },
    /// `ret` is the call site's return type.
    CallIndirect { result: Option<ValueId>, callee: Slot, ret: TypeId, args: Args },
    Malloc { result: ValueId, size: Slot },
    Free { ptr: Slot },
    PrintInt { value: Slot },
    PrintStr { s: StrId },
    PacSign { result: ValueId, value: Slot, modifier: u64, loc: Option<Slot>, pa: PaOp },
    PacAuth { result: ValueId, value: Slot, modifier: u64, loc: Option<Slot>, pa: PaOp },
    PacStrip { result: ValueId, value: Slot, site: u32 },
    PpAdd { ce: u8, fe: u64, site: u32 },
    PpSign { result: ValueId, value: Slot, ce: u8, pa: PaOp },
    PpAddTbi { result: ValueId, value: Slot, ce: u8, site: u32 },
    PpAuth { result: ValueId, value: Slot, pa: PaOp },
}

impl Op {
    /// The op's check-site id, [`NO_SITE`] unless it is a check.
    pub(super) fn site(&self) -> u32 {
        match self {
            Op::PacSign { pa, .. }
            | Op::PacAuth { pa, .. }
            | Op::PpSign { pa, .. }
            | Op::PpAuth { pa, .. } => pa.site,
            Op::PacStrip { site, .. } | Op::PpAdd { site, .. } | Op::PpAddTbi { site, .. } => *site,
            _ => NO_SITE,
        }
    }

    /// The signs and auths `done` completed runs of the op performed.
    pub(super) fn signs_auths(&self, done: u64) -> (u64, u64) {
        match self {
            Op::PacSign { .. } | Op::PpSign { .. } => (done, 0),
            Op::PacAuth { .. } | Op::PpAuth { .. } => (0, done),
            _ => (0, 0),
        }
    }
}

/// Shared compile context: the module plus its deterministic data layout,
/// which the loader then fills.
struct Cx<'m> {
    m: &'m Module,
    tl: TypeLayout,
    gaddr: &'m [u64],
    saddr: &'m [u64],
    cost: CostModel,
    mac: bool,
}

impl Cx<'_> {
    fn resolve(&self, op: &Operand) -> Slot {
        match op {
            Operand::Value(v) => Slot::Reg(*v),
            Operand::ConstInt(v, _) => Slot::Imm(RtVal::I(*v)),
            Operand::ConstFloat(bits, _) => Slot::Imm(RtVal::F(f64::from_bits(*bits))),
            Operand::Null(_) => Slot::Imm(RtVal::P(0)),
            Operand::FuncAddr(fid, _) => Slot::Imm(RtVal::P(func_address(self.m, *fid))),
            Operand::GlobalAddr(gid, _) => Slot::Imm(RtVal::P(self.gaddr[gid.0 as usize])),
            Operand::Str(sid, _) => Slot::Imm(RtVal::P(self.saddr[sid.0 as usize])),
        }
    }

    fn width(&self, ty: TypeId) -> Width {
        match self.m.types.get(ty) {
            Type::Bool | Type::I8 => Width::I8,
            Type::I16 => Width::I16,
            Type::I32 => Width::I32,
            Type::I64 => Width::I64,
            Type::F64 => Width::F64,
            Type::Ptr(_) => Width::Ptr,
            _ => Width::Other,
        }
    }

    fn wrap(&self, ty: TypeId) -> Wrap {
        match self.m.types.get(ty) {
            Type::Bool => Wrap::Bool,
            Type::I8 => Wrap::I8,
            Type::I16 => Wrap::I16,
            Type::I32 => Wrap::I32,
            _ => Wrap::Pass,
        }
    }

    fn pa(&self, key: PacKey, class: PacSite, site: u32) -> PaOp {
        PaOp { mac: self.mac, key: key_id(key), class, site }
    }
}

/// Compiles an image's module against its cost model and enforcement
/// backend, after checking every id in the image. Pure over the image —
/// runs share the result through the image's `OnceLock`.
pub(crate) fn compile_module(img: &Image) -> CompiledModule {
    let m: &Module = &img.module;
    if let Err(errs) = rsti_ir::check_ids(m, img.global_signing.iter().map(|g| g.global)) {
        let funcs = Err(errs[0].to_string());
        let (sites, gaddr, saddr) = (Vec::new(), Vec::new(), Vec::new());
        return CompiledModule { funcs, sites, gaddr, saddr, data_sizes: [0; 2], n_blocks: 0 };
    }
    // The globals layout is the module's (`Module::global_addresses`), so
    // the optimizer's precomputed-modifier pass folds exactly the
    // addresses the VM loads at. The segment size saturates: absurd
    // global sizes must survive layout so the loader can reject them
    // with a trap.
    let (gaddr, goff) = m.global_addresses();
    let mut saddr = Vec::with_capacity(m.strings.len());
    let mut soff = 0u64;
    for s in &m.strings {
        saddr.push(layout::STR_BASE + soff);
        soff += s.len() as u64 + 1;
    }
    let cx = Cx {
        m,
        tl: m.types.layout(),
        gaddr: &gaddr,
        saddr: &saddr,
        cost: CostModel::for_mechanism(img.mechanism),
        mac: img.backend == Backend::MacTable,
    };
    let mut n_blocks = 0u64;
    // Externals have no blocks, so skipping them keeps the
    // `check_sites` numbering.
    let mut sites = Vec::new();
    let funcs = m
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let n = f.inst_count();
            let mut cf = CompiledFunc {
                blocks: Vec::with_capacity(f.blocks.len()),
                ops: Vec::with_capacity(n),
                charge: Vec::with_capacity(n),
                args: Vec::new(),
            };
            n_blocks += f.blocks.len() as u64;
            let mut name = None;
            let mut fsites = FuncSites { fi, name: &mut name, sites: &mut sites };
            for (bi, b) in f.blocks.iter().enumerate() {
                let cb = compile_block(&cx, f, bi, b, &mut fsites, &mut cf);
                cf.blocks.push(cb);
            }
            cf
        })
        .collect();
    CompiledModule { funcs: Ok(funcs), sites, gaddr, saddr, data_sizes: [goff, soff], n_blocks }
}

/// Where a function's check sites go: the image's table, under the
/// function's one shared name.
struct FuncSites<'s> {
    fi: usize,
    name: &'s mut Option<std::sync::Arc<str>>,
    sites: &'s mut Vec<CheckSite>,
}

/// Compiles block `bi` of `f`, appending its check sites to `fs` and its
/// ops, their accounting and their call arguments to `cf`.
fn compile_block(
    cx: &Cx<'_>,
    f: &Function,
    bi: usize,
    b: &BasicBlock,
    fs: &mut FuncSites<'_>,
    cf: &mut CompiledFunc,
) -> CompiledBlock {
    let at = cf.ops.len() as u32;
    let mut total = 0u64;
    let mut class_counts = [0u32; 6];
    for (i, node) in b.insts.iter().enumerate() {
        let cost = cx.cost.cost(&node.inst);
        let before = total;
        total += cost;
        let id = fs.sites.len() as u32;
        let check = CheckSite::at(id, fs.fi, &f.name, fs.name, bi, i, node);
        let site = check.as_ref().map_or(NO_SITE, |c| c.id);
        fs.sites.extend(check);
        cf.ops.push(translate(cx, f, site, &node.inst, &mut cf.args));
        let class = opcode_class(&node.inst);
        class_counts[class] += 1;
        cf.charge.push(OpCharge { cost, before, class: class as u8 });
    }
    let term = match &b.term {
        Terminator::Br(bb) => CompiledTerm::Br(bb.0),
        Terminator::CondBr { cond, then_bb, else_bb } => match cx.resolve(cond) {
            Slot::Reg(v) => CompiledTerm::CondBrReg { v, then_bb: then_bb.0, else_bb: else_bb.0 },
            cond => CompiledTerm::CondBr { cond, then_bb: then_bb.0, else_bb: else_bb.0 },
        },
        Terminator::Ret(v) => CompiledTerm::Ret(v.as_ref().map(|v| cx.resolve(v))),
        Terminator::Unreachable => CompiledTerm::Unreachable,
    };
    CompiledBlock { at, len: b.insts.len() as u32, total_cost: total, class_counts, term }
}

/// Translates one instruction of `f` into its op. `site` is its check-site
/// id ([`NO_SITE`] unless it is a check); a call's argument slots go to
/// the end of `args`.
fn translate(cx: &Cx<'_>, f: &Function, site: u32, inst: &Inst, args: &mut Vec<Slot>) -> Op {
    let mut call_args = |list: &[Operand]| {
        let at = args.len() as u32;
        args.extend(list.iter().map(|a| cx.resolve(a)));
        Args { at, len: list.len() as u32 }
    };
    match inst {
        Inst::Alloca { result, ty, .. } => {
            let size = cx.tl.size_of(*ty).max(1).div_ceil(8).saturating_mul(8);
            Op::Alloca { result: *result, size }
        }
        Inst::Load { result, ptr, ty } => {
            Op::Load { result: *result, ptr: cx.resolve(ptr), width: cx.width(*ty), ty: *ty }
        }
        Inst::Store { value, ptr } => {
            // The slot (pointee) type the store writes through; without
            // one the value's shape decides.
            let slot_ty = match ptr {
                Operand::Value(v) => cx.m.types.pointee(f.value_type(*v)),
                Operand::GlobalAddr(_, t) | Operand::Null(t) | Operand::Str(_, t) => {
                    cx.m.types.pointee(*t)
                }
                _ => None,
            };
            let (width, ty) = match slot_ty {
                Some(ty) => (cx.width(ty), ty),
                None => (Width::Shape, cx.m.types.i64()),
            };
            Op::Store { value: cx.resolve(value), ptr: cx.resolve(ptr), width, ty }
        }
        Inst::FieldAddr { result, base, struct_id, field } => Op::FieldAddr {
            result: *result,
            base: cx.resolve(base),
            off: cx.tl.field_offset(*struct_id, *field),
        },
        Inst::IndexAddr { result, base, index, elem_ty } => Op::IndexAddr {
            result: *result,
            base: cx.resolve(base),
            index: cx.resolve(index),
            size: cx.tl.size_of(*elem_ty).max(1) as i64,
        },
        Inst::BitCast { result, value, .. } => {
            Op::BitCast { result: *result, value: cx.resolve(value) }
        }
        Inst::Convert { result, value, to } => Op::Convert {
            result: *result,
            value: cx.resolve(value),
            to_f64: matches!(cx.m.types.get(*to), Type::F64),
            wrap: cx.wrap(*to),
        },
        Inst::Bin { result, op, lhs, rhs, ty } => {
            let (result, op, lhs, rhs) = (*result, *op, cx.resolve(lhs), cx.resolve(rhs));
            if matches!(cx.m.types.get(*ty), Type::F64) {
                Op::FBin { result, op, lhs, rhs }
            } else {
                Op::Bin { result, op, wrap: cx.wrap(*ty), lhs, rhs }
            }
        }
        Inst::Cmp { result, op, lhs, rhs } => {
            Op::Cmp { result: *result, op: *op, lhs: cx.resolve(lhs), rhs: cx.resolve(rhs) }
        }
        Inst::Call { result, callee, args } => {
            let cf = cx.m.func(*callee);
            Op::Call {
                result: *result,
                callee: *callee,
                external: cf.is_external,
                ret: cf.sig.ret,
                args: call_args(args),
            }
        }
        Inst::CallIndirect { result, callee, args, sig } => Op::CallIndirect {
            result: *result,
            callee: cx.resolve(callee),
            ret: sig.ret,
            args: call_args(args),
        },
        Inst::Malloc { result, size, .. } => Op::Malloc { result: *result, size: cx.resolve(size) },
        Inst::Free { ptr } => Op::Free { ptr: cx.resolve(ptr) },
        Inst::PrintInt { value } => Op::PrintInt { value: cx.resolve(value) },
        Inst::PrintStr { s } => Op::PrintStr { s: *s },
        Inst::PacSign { result, value, key, modifier, loc, site: class } => Op::PacSign {
            result: *result,
            value: cx.resolve(value),
            modifier: *modifier,
            loc: loc.as_ref().map(|l| cx.resolve(l)),
            pa: cx.pa(*key, *class, site),
        },
        Inst::PacAuth { result, value, key, modifier, loc, site: class } => Op::PacAuth {
            result: *result,
            value: cx.resolve(value),
            modifier: *modifier,
            loc: loc.as_ref().map(|l| cx.resolve(l)),
            pa: cx.pa(*key, *class, site),
        },
        Inst::PacStrip { result, value } => {
            Op::PacStrip { result: *result, value: cx.resolve(value), site }
        }
        Inst::PpAdd { ce, fe_modifier } => Op::PpAdd { ce: *ce, fe: *fe_modifier, site },
        // The pointer-to-pointer checks report the `on_load` class.
        Inst::PpSign { result, value, ce, key } => Op::PpSign {
            result: *result,
            value: cx.resolve(value),
            ce: *ce,
            pa: cx.pa(*key, PacSite::OnLoad, site),
        },
        Inst::PpAddTbi { result, value, ce } => {
            Op::PpAddTbi { result: *result, value: cx.resolve(value), ce: *ce, site }
        }
        Inst::PpAuth { result, value, key } => Op::PpAuth {
            result: *result,
            value: cx.resolve(value),
            pa: cx.pa(*key, PacSite::OnLoad, site),
        },
    }
}

/// The one PAC-in-pointer vs MAC-table split of a sign, for the sign op
/// ([`Vm::pa_sign`]) and the loader alike: PAC-in-pointer returns the
/// signed bits and no MAC; the MAC table returns `p` unchanged and the MAC
/// for the slot it is stored to. Either way the sign counts once.
#[inline(always)]
pub(crate) fn sign(pac: &mut PacUnit, mac: bool, key: KeyId, p: u64, modifier: u64) -> (u64, Option<u64>) {
    if mac {
        pac.sign_count += 1;
        (p, Some(pac.compute_pac(key, p, modifier)))
    } else {
        (pac.sign(key, p, modifier), None)
    }
}

impl Vm<'_> {
    /// Runs one op: each instruction's runtime rule is one arm. `args` is
    /// its function's argument pool, and `(block, idx)` its position: a
    /// call commits the position after it as the caller's resume point.
    #[inline(always)]
    fn exec_op(&mut self, op: &Op, args: &[Slot], block: usize, idx: usize) -> Control {
        match *op {
            Op::Alloca { result, size } => {
                // One slot per activation: a loop that re-executes the
                // alloca gets the same slot.
                let fr = self.frames.last().expect("frame");
                let (tag, cached) = fr.alloca_cache[result.0 as usize];
                if tag == fr.gen {
                    self.set(result, RtVal::P(cached));
                    return Control::Next;
                }
                let addr = self.stack_top;
                if addr.checked_add(size).is_none_or(|end| end >= layout::STACK_BASE + layout::STACK_SIZE) {
                    return trapped(Trap::StackOverflow);
                }
                self.stack_top += size;
                tri!(self.mem.write_zeros(addr, size).map_err(|e| self.mem_err(e)));
                let fr = self.frames.last_mut().expect("frame");
                fr.alloca_cache[result.0 as usize] = (fr.gen, addr);
                self.set(result, RtVal::P(addr));
            }
            Op::Load { result, ptr, width, ty } => return self.load(result, ptr, width, ty, idx),
            Op::Store { value, ptr, width, ty } => return self.store(value, ptr, width, ty, idx),
            Op::FieldAddr { result, base, off } => {
                let b = tri!(base.read_ptr(self));
                self.set(result, RtVal::P(b.wrapping_add(off)));
            }
            Op::IndexAddr { result, base, index, size } => {
                let b = tri!(base.read_ptr(self));
                let i = match tri!(index.read(self)) {
                    RtVal::I(i) => i,
                    RtVal::P(p) => p as i64,
                    RtVal::F(_) => return trapped(bad_program("float index")),
                };
                self.set(result, RtVal::P(b.wrapping_add(i.wrapping_mul(size) as u64)));
            }
            Op::BitCast { result, value } => {
                let v = tri!(value.read(self));
                self.set(result, v);
            }
            Op::Convert { result, value, to_f64, wrap } => {
                let out = match (tri!(value.read(self)), to_f64) {
                    (RtVal::I(i), true) => RtVal::F(i as f64),
                    (RtVal::F(fv), true) => RtVal::F(fv),
                    (RtVal::F(fv), false) => RtVal::I(wrap.apply(truncate(fv))),
                    (RtVal::I(i), false) => RtVal::I(wrap.apply(i)),
                    (RtVal::P(p), _) => RtVal::I(wrap.apply(p as i64)),
                };
                self.set(result, out);
            }
            Op::Bin { result, op, wrap, lhs, rhs } => {
                let x = int_of(tri!(lhs.read(self)));
                let y = int_of(tri!(rhs.read(self)));
                let v = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div | BinOp::Rem if y == 0 => return self.div_by_zero(),
                    BinOp::Div => x.wrapping_div(y),
                    BinOp::Rem => x.wrapping_rem(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => x.wrapping_shl(y as u32 & 63),
                    BinOp::Shr => x.wrapping_shr(y as u32 & 63),
                };
                self.set(result, RtVal::I(wrap.apply(v)));
            }
            Op::FBin { result, op, lhs, rhs } => {
                // Both operands coerce first: an lhs error wins over an
                // rhs error, both over a bitwise op.
                let x = tri!(float_of(tri!(lhs.read(self))));
                let y = tri!(float_of(tri!(rhs.read(self))));
                let v = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    _ => return trapped(bad_program("bitwise op on float")),
                };
                self.set(result, RtVal::F(v));
            }
            Op::Cmp { result, op, lhs, rhs } => {
                let o = ord_vals(tri!(lhs.read(self)), tri!(rhs.read(self)));
                let t = match op {
                    CmpOp::Eq => o == Ordering::Equal,
                    CmpOp::Ne => o != Ordering::Equal,
                    CmpOp::Lt => o == Ordering::Less,
                    CmpOp::Le => o != Ordering::Greater,
                    CmpOp::Gt => o == Ordering::Greater,
                    CmpOp::Ge => o != Ordering::Less,
                };
                self.set(result, RtVal::I(t as i64));
            }
            Op::Call { result, callee, external, ret, args: a } => {
                return self.call(callee, external, ret, result, a.of(args), block, idx)
            }
            Op::CallIndirect { result, callee, ret, args: a } => {
                let p = tri!(callee.read_ptr(self));
                if !VA.is_canonical(p) {
                    return trapped(Trap::NonCanonicalCall { func: self.cur_func_name(), ptr: p });
                }
                let target = VA.canonical(p);
                let Some((fid, external)) = resolve_code_addr(&self.img.module, target) else {
                    return trapped(Trap::CallNonFunction { func: self.cur_func_name(), target });
                };
                return self.call(fid, external, ret, result, a.of(args), block, idx);
            }
            Op::Malloc { result, size } => {
                let sz = match tri!(size.read(self)) {
                    RtVal::I(i) => i.max(0) as u64,
                    RtVal::P(p) => p,
                    RtVal::F(_) => return trapped(bad_program("float malloc size")),
                };
                let addr = tri!(self.alloc.malloc(sz).ok_or(Trap::HeapExhausted));
                self.set(result, RtVal::P(addr));
            }
            Op::Free { ptr } => {
                // Freeing an address the allocator does not own is an
                // event, not a trap.
                let p = tri!(ptr.read_ptr(self));
                let a = VA.canonical(p);
                if self.rec.is_some() {
                    self.rec_plain(RecKind::Free, self.op_cycle(idx), a, p);
                }
                if a != 0 && !self.alloc.free(a) {
                    let args = vec![format!("{a:#x}")];
                    self.events.push(ExtEvent { name: "invalid_free".into(), args, critical: false });
                }
            }
            Op::PrintInt { value } => {
                let v = tri!(value.read(self));
                self.output.push(v.to_string());
            }
            Op::PrintStr { s } => {
                let img = self.img;
                self.output.push(img.module.strings[s.0 as usize].clone());
            }
            Op::PacSign { result, value, modifier, loc, pa } => {
                self.site_counts[pa.class as usize] += 1;
                let p = tri!(value.read_ptr(self));
                let modifier = tri!(self.modifier_at(modifier, loc));
                let signed = self.pa_sign(pa, p, modifier);
                self.set(result, RtVal::P(signed));
            }
            Op::PacAuth { result, value, modifier, loc, pa } => {
                self.site_counts[pa.class as usize] += 1;
                let p = tri!(value.read_ptr(self));
                let modifier = tri!(self.modifier_at(modifier, loc));
                let clean = tri!(self.pa_auth(pa, p, modifier));
                self.set(result, RtVal::P(clean));
            }
            Op::PacStrip { result, value, site } => {
                self.site_counts[PacSite::ExternalStrip as usize] += 1;
                let p = tri!(value.read_ptr(self));
                let stripped = self.pac.strip(p);
                if self.rec.is_some() {
                    self.rec_push(RecKind::Strip, site, p, 0, None);
                }
                self.set(result, RtVal::P(stripped));
            }
            // A CE's FE modifier registers once; a different one is a
            // conflict.
            Op::PpAdd { ce, fe, site } => match self.pp_table.get(&ce) {
                Some(&had) if had != fe => {
                    let f = PpFail::Conflict { ce: ce as u64, had };
                    return trapped(self.pp_fail(site, fe, f, 0, None));
                }
                _ => {
                    self.pp_table.insert(ce, fe);
                }
            },
            Op::PpSign { result, value, ce, pa } => {
                let p = tri!(value.read_ptr(self));
                let Some(&fe) = self.pp_table.get(&ce) else {
                    let f = PpFail::NotRegistered { ce: ce as u64 };
                    return trapped(self.pp_fail(pa.site, ce as u64, f, p, Some(pa.key)));
                };
                let signed = self.pa_sign(pa, p, fe);
                self.set(result, RtVal::P(signed));
            }
            Op::PpAddTbi { result, value, ce, .. } => {
                let p = tri!(value.read_ptr(self));
                self.set(result, RtVal::P(VA.with_tbi_tag(p, ce)));
            }
            Op::PpAuth { result, value, pa } => {
                let p = tri!(value.read_ptr(self));
                let ce = VA.tbi_tag(p);
                if ce == 0 {
                    return trapped(self.pp_fail(pa.site, 0, PpFail::MissingTag, p, Some(pa.key)));
                }
                let Some(&fe) = self.pp_table.get(&ce) else {
                    let f = PpFail::NotInStore { ce: ce as u64 };
                    return trapped(self.pp_fail(pa.site, ce as u64, f, p, Some(pa.key)));
                };
                let clean = tri!(self.pa_auth(pa, VA.clear_tbi(p), fe));
                self.set(result, RtVal::P(clean));
            }
        }
        Control::Next
    }

    /// Reads register `v` of the current frame.
    #[inline(always)]
    fn reg(&self, v: ValueId) -> Result<RtVal, Box<Trap>> {
        let Some(&(tag, val)) = self.regs.get(self.reg_base + v.0 as usize) else {
            return Err(oob("register", v.0 as usize));
        };
        if tag != self.cur_gen {
            return Err(undefined_use(v));
        }
        Ok(val)
    }

    #[inline(always)]
    fn read_mem<const N: usize>(&self, addr: u64) -> Result<[u8; N], Box<Trap>> {
        self.mem.read_arr(addr).map_err(|e| self.mem_err(e))
    }

    #[cold]
    #[inline(never)]
    fn div_by_zero(&self) -> Control {
        trapped(Trap::DivByZero { func: self.cur_func_name() })
    }

    #[cold]
    #[inline(never)]
    fn bad_load(&self, ty: TypeId) -> Box<Trap> {
        let t = self.img.module.types.get(ty);
        Box::new(Trap::BadProgram(format!("load of unsupported type {t:?}")))
    }

    /// The load rule: reads the `width`-wide value at `ptr` into
    /// `result`. An unsupported type (`ty`) traps only after the pointer
    /// itself resolved. `j` is the op's place in its block, which the
    /// recorder's timestamp reads.
    #[inline(always)]
    fn load(&mut self, result: ValueId, ptr: Slot, width: Width, ty: TypeId, j: usize) -> Control {
        let addr = tri!(self.deref_addr(tri!(ptr.read_ptr(self))));
        let v = match width {
            Width::I8 => RtVal::I(tri!(self.read_mem::<1>(addr))[0] as i8 as i64),
            Width::I16 => RtVal::I(i16::from_le_bytes(tri!(self.read_mem(addr))) as i64),
            Width::I32 => RtVal::I(i32::from_le_bytes(tri!(self.read_mem(addr))) as i64),
            Width::I64 => RtVal::I(i64::from_le_bytes(tri!(self.read_mem(addr)))),
            Width::F64 => RtVal::F(f64::from_le_bytes(tri!(self.read_mem(addr)))),
            Width::Ptr => {
                let bits = u64::from_le_bytes(tri!(self.read_mem(addr)));
                // The MAC table's auth reads the slot of the last pointer
                // load.
                self.last_ptr_load = Some(addr);
                if self.rec.is_some() {
                    self.rec_plain(RecKind::Load, self.op_cycle(j), addr, bits);
                }
                RtVal::P(bits)
            }
            // `Other` (`Shape` is a store-only width).
            _ => return trapped(self.bad_load(ty)),
        };
        self.set(result, v);
        Control::Next
    }

    /// The store rule: writes `value` through `ptr` at the `width` its
    /// translation decided, after handing the slot a MAC the sign before
    /// it staged. An integer stored into an `f64` slot converts; a value
    /// the slot (of type `ty`) cannot hold traps.
    #[inline(always)]
    fn store(&mut self, value: Slot, ptr: Slot, width: Width, ty: TypeId, j: usize) -> Control {
        let v = tri!(value.read(self));
        let addr = tri!(self.deref_addr(tri!(ptr.read_ptr(self))));
        if let Some(mac) = self.pending_mac.take() {
            self.mac_table.insert(addr, mac);
        }
        let w = match (width, v) {
            (Width::I8, RtVal::I(i)) => self.mem.write_arr(addr, [i as u8]),
            (Width::I16, RtVal::I(i)) => self.mem.write_arr(addr, (i as i16).to_le_bytes()),
            (Width::I32, RtVal::I(i)) => self.mem.write_arr(addr, (i as i32).to_le_bytes()),
            (Width::I64 | Width::Shape, RtVal::I(i)) => self.mem.write_arr(addr, i.to_le_bytes()),
            (Width::F64 | Width::Shape, RtVal::F(f)) => self.mem.write_arr(addr, f.to_le_bytes()),
            (Width::F64, RtVal::I(i)) => self.mem.write_arr(addr, (i as f64).to_le_bytes()),
            (Width::Ptr, v) => {
                let p = tri!(self.as_ptr(v));
                let w = self.mem.write_arr(addr, p.to_le_bytes());
                if w.is_ok() && self.rec.is_some() {
                    // A pointer slot changed hands — the lifecycle event
                    // lineage resolution walks back through.
                    self.rec_plain(RecKind::Store, self.op_cycle(j), addr, p);
                }
                w
            }
            (_, v) => return trapped(self.bad_store(v, ty)),
        };
        tri!(w.map_err(|e| self.mem_err(e)));
        Control::Next
    }

    #[cold]
    #[inline(never)]
    fn bad_store(&self, v: RtVal, ty: TypeId) -> Trap {
        let t = self.img.module.types.get(ty);
        Trap::BadProgram(format!("store of {v:?} into {t:?}"))
    }

    /// The call rule, for direct and indirect calls alike: reads the
    /// argument slots, then runs an external in place or hands the
    /// internal callee to the driver, the caller resuming after `(block,
    /// idx)`.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn call(
        &mut self,
        fid: FuncId,
        external: bool,
        ret: TypeId,
        result: Option<ValueId>,
        args: &[Slot],
        block: usize,
        idx: usize,
    ) -> Control {
        let mut argv = std::mem::take(&mut self.call_args);
        argv.clear();
        for a in args {
            match a.read(self) {
                Ok(v) => argv.push(v),
                Err(e) => {
                    self.call_args = argv;
                    return trapped(e);
                }
            }
        }
        let r = if external {
            let img = self.img;
            let v = self.external_call(&img.module.funcs[fid.0 as usize].name, &argv, ret);
            if let (Some(rr), Some(v)) = (result, v) {
                self.set(rr, v);
            }
            Control::Next
        } else {
            self.commit_pos(block, idx + 1);
            self.pending_call = (fid, result);
            Control::Call
        };
        self.call_args = argv;
        r
    }

    /// A sign's or auth's modifier: the static one, mixed with the slot's
    /// address when the check is location-bound.
    #[inline(always)]
    fn modifier_at(&self, modifier: u64, loc: Option<Slot>) -> Result<u64, Box<Trap>> {
        Ok(match loc {
            None => modifier,
            Some(l) => modifier ^ VA.canonical(l.read_ptr(self)?),
        })
    }

    /// The sign rule, for both enforcement backends ([`sign`]): a MAC is
    /// staged for the store that follows. Either way the recorder sees the
    /// value returned.
    ///
    /// Out of line, like [`Vm::pa_auth`]: the cipher would otherwise
    /// inflate every op's dispatch frame.
    #[inline(never)]
    fn pa_sign(&mut self, op: PaOp, p: u64, modifier: u64) -> u64 {
        let (signed, mac) = sign(&mut self.pac, op.mac, op.key, p, modifier);
        if mac.is_some() {
            self.pending_mac = mac;
        }
        if self.rec.is_some() {
            self.rec_push(RecKind::Sign, op.site, signed, modifier, Some(op.key));
        }
        signed
    }

    /// The auth rule, for both enforcement backends, returning the
    /// authenticated pointer. PAC-in-pointer checks the pointer's PAC and
    /// strips it; the MAC table checks the MAC staged by the sign just
    /// before or else the table entry of the slot last loaded from, and
    /// returns `p` unchanged. A miss is reported by [`Vm::auth_fail`].
    #[inline(never)]
    fn pa_auth(&mut self, op: PaOp, p: u64, modifier: u64) -> Result<u64, Box<Trap>> {
        let clean = if op.mac {
            self.pac.auth_count += 1;
            let expected = self.pac.compute_pac(op.key, p, modifier);
            let ok = match (self.pending_mac.take(), self.last_ptr_load) {
                (Some(staged), _) => staged == expected,
                (None, Some(slot)) => self.mac_table.get(&slot) == Some(&expected),
                (None, None) => false,
            };
            if !ok {
                self.pac.fail_count += 1;
                return Err(self.auth_fail(op, p, modifier, 0, expected));
            }
            p
        } else {
            match self.pac.auth(op.key, p, modifier) {
                Ok(clean) => clean,
                Err(e) => return Err(self.auth_fail(op, p, modifier, e.found_pac, e.expected_pac)),
            }
        };
        if self.rec.is_some() {
            self.rec_push(RecKind::Auth, op.site, p, modifier, Some(op.key));
        }
        Ok(clean)
    }
}

impl<'img> Vm<'img> {
    /// The one driver behind [`Vm::run`], [`Vm::run_to_function`] and
    /// [`Vm::finish`]. With a watchpoint — the `(function, block)` entries
    /// of a source scope — it runs one block per dispatch and pauses on
    /// entering any of them.
    pub(crate) fn drive(&mut self, watch: Option<&HashSet<(FuncId, usize)>>) {
        let code = self.code;
        // An image that failed the id check has no code; its VM was
        // trapped at load.
        let Ok(funcs) = &code.funcs else {
            self.flush_telemetry();
            return;
        };
        let _span = rsti_telemetry::global().span(Phase::VmRun);
        let mut skip_check = std::mem::take(&mut self.paused);
        let Some(w) = watch else {
            // No watchpoint (the measurement path): direct-threaded
            // block execution with no per-block entry check.
            while self.status.is_none() {
                if let Err(t) = self.exec_blocks(funcs, false) {
                    self.status = Some(Status::Trapped(t));
                }
            }
            self.flush_telemetry();
            return;
        };
        while self.status.is_none() {
            let fresh = !std::mem::take(&mut skip_check);
            let fr = self.frames.last();
            if fresh && fr.is_some_and(|fr| fr.idx == 0 && w.contains(&(fr.func, fr.block))) {
                self.paused = true;
                return; // paused at a scope entry
            }
            // One block per dispatch: the pause check above must see
            // every block entry, and the attacker API the exact state
            // between any two blocks.
            if let Err(t) = self.exec_blocks(funcs, true) {
                self.status = Some(Status::Trapped(t));
            }
        }
        self.flush_telemetry();
    }

    /// Executes blocks from the current frame position until control
    /// leaves the frame (call push, return, exit) or — with
    /// `single_block` — the first block transfer.
    fn exec_blocks(&mut self, code: &[CompiledFunc], single_block: bool) -> Result<(), Trap> {
        let depth = self.frames.len();
        let fr = self.frames.last().expect("active frame");
        let mut cf = &code[fr.func.0 as usize];
        let mut block = fr.block;
        let mut idx = fr.idx;
        let branch_cost = CostModel::for_mechanism(self.img.mechanism).branch;
        // Loop-invariant driver state lives in registers: the accounting
        // mode, telemetry tracing and the observers cannot change mid-run,
        // and the fuel headroom only needs re-deriving after a frame
        // change.
        let trace = self.trace_enabled;
        let per_op = self.img.exec == ExecBackend::Interp;
        let (attr, rec) = (self.attr.is_some(), self.rec.is_some());
        let mut budget = self.fuel.saturating_sub(self.insts);
        loop {
            let cb = &cf.blocks[block];
            let ops = cf.ops(cb);
            let n = ops.len();
            if per_op {
                if let Err((to, ctl)) = self.exec_ops_cold(cf, block, idx) {
                    return self.leave_block(block, idx, to, ctl);
                }
            } else {
                // Block pre-charge: charge the straight-line run *and the
                // terminator* up front (cycle prefix sums, and with
                // telemetry on the opclass counts), roll back the
                // unexecuted suffix on any early exit. Totals match per-op
                // charging exactly: the per-op fuel check fires nowhere in
                // a run the budget covers, and a run the budget ends inside
                // is the fuel tail's.
                if rec {
                    self.start_clock(cf, cb, idx);
                }
                let remaining = (n - idx) as u64 + 1;
                if remaining > budget {
                    return self.fuel_tail(cf, block, idx, budget as usize);
                }
                budget -= remaining;
                self.insts += remaining;
                // `idx == 0` on every transfer except a call resume: the
                // whole-block cost sits in the block header, sparing the
                // prefix-sum indexing on the common path.
                self.cycles += branch_cost
                    + if idx == 0 {
                        cb.total_cost
                    } else {
                        cb.total_cost - cf.cost_before(cb, idx)
                    };
                if trace {
                    self.count_classes(cf, cb, idx, n);
                    self.opclass[OPCLASS_BRANCH] += 1;
                }
                for (op, j) in ops[idx..].iter().zip(idx..) {
                    match self.exec_op(op, &cf.args, block, j) {
                        Control::Next => {}
                        ctl => {
                            self.rollback(cf, cb, j + 1, n, true);
                            return self.leave_block(block, idx, j + 1, ctl);
                        }
                    }
                }
            }
            if attr {
                self.attr_run(block, idx, n, true, false);
            }
            match self.exec_term(&cb.term).map_err(|t| *t)? {
                Some(next) => block = next,
                None => {
                    if self.frames.len() != depth || self.status.is_some() {
                        return Ok(());
                    }
                    // Same depth with the run still live: the corrupted-
                    // return path swapped this frame for a "gadget"
                    // frame. Re-read the position and continue there.
                    let fr = self.frames.last().expect("active frame");
                    cf = &code[fr.func.0 as usize];
                    block = fr.block;
                    idx = fr.idx;
                    if single_block {
                        return Ok(());
                    }
                    budget = self.fuel.saturating_sub(self.insts);
                    continue;
                }
            }
            // Straight-line transfers track the position in locals only.
            // The frame is written exactly where it is observed: by
            // committing ops (calls) and — here — when watch mode must see
            // every block entry.
            idx = 0;
            if single_block {
                let fr = self.frames.last_mut().expect("active frame");
                fr.block = block;
                fr.idx = 0;
                return Ok(());
            }
        }
    }

    /// The block pre-charge of a run the fuel budget ends inside: ops
    /// `i..i + n` alone are pre-charged and run, then the run traps
    /// where per-op charging would. Kept out of the fast loop: a variable
    /// end and terminator flag there slowed the unobserved fast path by
    /// 5–7% (DESIGN §10).
    #[cold]
    #[inline(never)]
    fn fuel_tail(&mut self, cf: &CompiledFunc, bb: usize, i: usize, n: usize) -> Result<(), Trap> {
        let (cb, end) = (&cf.blocks[bb], i + n);
        self.insts += n as u64;
        self.cycles += cf.cost_before(cb, end) - cf.cost_before(cb, i);
        if self.trace_enabled {
            self.count_classes(cf, cb, i, end);
        }
        for (op, j) in cf.ops(cb)[i..end].iter().zip(i..) {
            match self.exec_op(op, &cf.args, bb, j) {
                Control::Next => {}
                ctl => {
                    self.rollback(cf, cb, j + 1, end, false);
                    return self.leave_block(bb, i, j + 1, ctl);
                }
            }
        }
        self.leave_block(bb, i, end, trapped(Trap::FuelExhausted))
    }

    /// Reverses the fast path's pre-charge for ops `j..to` of `cb` and,
    /// with `term`, its terminator, which did not execute because op
    /// `j - 1` trapped or called. (A caller's frame re-charges them when
    /// it resumes at `j`.)
    #[inline]
    fn rollback(&mut self, cf: &CompiledFunc, cb: &CompiledBlock, j: usize, to: usize, term: bool) {
        let branch = CostModel::for_mechanism(self.img.mechanism).branch;
        self.insts -= (to - j) as u64 + u64::from(term);
        self.cycles -= cf.cost_before(cb, to) - cf.cost_before(cb, j) + u64::from(term) * branch;
        if self.trace_enabled {
            for c in &cf.charge(cb)[j..to] {
                self.opclass[c.class as usize] -= 1;
            }
            self.opclass[OPCLASS_BRANCH] -= u64::from(term);
        }
    }

    /// The fast path's opclass pre-count for ops `idx..to`: the block's
    /// translated per-class totals on a whole-block entry, the charge
    /// stream's classes otherwise.
    fn count_classes(&mut self, cf: &CompiledFunc, cb: &CompiledBlock, idx: usize, to: usize) {
        if idx == 0 && to == cb.len as usize {
            for (c, k) in self.opclass.iter_mut().zip(cb.class_counts) {
                *c += u64::from(k);
            }
        } else {
            for c in &cf.charge(cb)[idx..to] {
                self.opclass[c.class as usize] += 1;
            }
        }
    }

    /// Ends a block run short of its terminator: ops `from..to` of block
    /// `bb` ran and nothing after them stays charged. Op `to - 1` called or
    /// trapped, or the fuel ran out before op `to`. A call's frame is
    /// pushed here, at the call's exact cycle, after attribution counted
    /// the run under the caller's stack.
    #[inline(never)]
    fn leave_block(&mut self, bb: usize, from: usize, to: usize, ctl: Control) -> Result<(), Trap> {
        if self.attr.is_some() {
            // Fuel exhaustion is the one trap no op raises.
            let op_trap = matches!(&ctl, Control::Trap(t) if !matches!(**t, Trap::FuelExhausted));
            self.attr_run(bb, from, to, false, op_trap);
        }
        match ctl {
            Control::Call => {
                let (fid, ret_to) = self.pending_call;
                let argv = std::mem::take(&mut self.call_args);
                let r = self.push_frame(fid, &argv, ret_to);
                self.call_args = argv;
                r
            }
            Control::Trap(t) => Err(*t),
            Control::Next => unreachable!("a run stops short only at a call or a trap"),
        }
    }

    /// The per-op loop, reference accounting's driver: ops `idx..` of
    /// block `block` of `cf`, each fuel-checked and charged before it
    /// runs, then the terminator's charge.
    #[inline(never)]
    fn exec_ops(&mut self, cf: &CompiledFunc, block: usize, idx: usize) -> RunEnd {
        let cb = &cf.blocks[block];
        let (ops, charges) = (cf.ops(cb), cf.charge(cb));
        for j in idx..ops.len() {
            if self.insts >= self.fuel {
                return Err((j, trapped(Trap::FuelExhausted)));
            }
            self.insts += 1;
            if self.trace_enabled {
                self.opclass[charges[j].class as usize] += 1;
            }
            self.cycles += charges[j].cost;
            match self.exec_op(&ops[j], &cf.args, block, j) {
                Control::Next => {}
                ctl => return Err((j + 1, ctl)),
            }
        }
        if self.insts >= self.fuel {
            return Err((ops.len(), trapped(Trap::FuelExhausted)));
        }
        self.insts += 1;
        if self.trace_enabled {
            self.opclass[OPCLASS_BRANCH] += 1;
        }
        self.cycles += CostModel::for_mechanism(self.img.mechanism).branch;
        Ok(())
    }

    /// The driver's entry into [`Vm::exec_ops`], marked cold so the fast
    /// path's code layout treats it as the exception it is.
    #[cold]
    #[inline(never)]
    fn exec_ops_cold(&mut self, cf: &CompiledFunc, block: usize, idx: usize) -> RunEnd {
        self.exec_ops(cf, block, idx)
    }

    /// Attribution's one hook, at the end of every block run under either
    /// accounting mode: ops `from..to` of `block` ran, then its terminator
    /// when `term`, and op `to - 1` trapped when `trapped`. The run adds
    /// to its function's execution counts and takes the call-stack samples
    /// its cycles crossed: no charge exceeds the sampling period
    /// ([`MIN_ATTR_SAMPLE_EVERY`]), and all of a run's charges fall under
    /// one stack.
    #[inline(never)]
    fn attr_run(&mut self, block: usize, from: usize, to: usize, term: bool, trapped: bool) {
        let fi = self.frames.last().expect("active frame").func.0 as usize;
        let Ok(funcs) = &self.code.funcs else { return };
        let at = funcs[fi].blocks[block].at as usize;
        let cycles = self.cycles;
        let a = self.attr.as_deref_mut().expect("attr on");
        let f = &mut a.funcs[fi];
        f.op_runs[at + from] += 1;
        f.op_runs[at + to] -= 1;
        f.term_runs[block] += u64::from(term);
        if trapped {
            a.trapped = Some((fi, at + to - 1));
        }
        if cycles >= a.next_sample {
            let crossed = cycles / a.sample_every + 1 - a.next_sample / a.sample_every;
            a.next_sample = (cycles / a.sample_every + 1) * a.sample_every;
            self.attr_take_samples(crossed);
        }
    }

    /// Starts the block clock [`Vm::op_cycle`] reads: the block pre-charge
    /// of a run from op `idx` of `cb`, with the recorder armed.
    #[inline(never)]
    fn start_clock(&mut self, cf: &CompiledFunc, cb: &CompiledBlock, idx: usize) {
        let clock = (self.cycles - cf.cost_before(cb, idx), cb.at as usize);
        self.rec.as_deref_mut().expect("recorder armed").clock = clock;
    }

    /// The cycle count once op `j` of the running block is charged, which
    /// the recorder's timestamps read: the running total under per-op
    /// charging; under the block pre-charge, the block's clock plus the
    /// op's prefix sum. Out of line, to keep the op rules small.
    #[inline(never)]
    pub(super) fn op_cycle(&self, j: usize) -> u64 {
        match (&self.code.funcs, self.frames.last(), self.rec.as_deref()) {
            (Ok(funcs), Some(fr), Some(r)) if self.img.exec == ExecBackend::Compiled => {
                let c = &funcs[fr.func.0 as usize].charge[r.clock.1 + j];
                r.clock.0 + c.before + c.cost
            }
            _ => self.cycles,
        }
    }

    /// Executes a block's terminator, after its transfer charge. A branch
    /// only names its successor, `Some(block)`: the driver tracks the
    /// position in locals. `ret` and `unreachable` run here and return
    /// `None`.
    #[inline(always)]
    fn exec_term(&mut self, t: &CompiledTerm) -> Result<Option<usize>, Box<Trap>> {
        let (cond, then_bb, else_bb) = match t {
            CompiledTerm::Br(bb) => return Ok(Some(*bb as usize)),
            CompiledTerm::CondBrReg { v, then_bb, else_bb } => (self.reg(*v)?, then_bb, else_bb),
            CompiledTerm::CondBr { cond, then_bb, else_bb } => (cond.read(self)?, then_bb, else_bb),
            CompiledTerm::Ret(v) => {
                let val = match v {
                    Some(s) => Some(s.read(self)?),
                    None => None,
                };
                self.exec_ret(val)?;
                return Ok(None);
            }
            CompiledTerm::Unreachable => {
                return Err(Box::new(unreachable_reached(&self.cur_func_name())))
            }
        };
        let taken = match cond {
            RtVal::I(v) => v != 0,
            RtVal::P(p) => p != 0,
            RtVal::F(f) => f != 0.0,
        };
        Ok(Some(if taken { *then_bb } else { *else_bb } as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_core::{check_sites, Mechanism};

    /// `serve` caches 128 translated images: a fatter op shows in its
    /// resident memory.
    #[test]
    fn an_op_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Op>(), 56);
    }

    /// A check op counts its site at index `class as usize`: that is the
    /// class's place in [`SITE_ORDER`].
    #[test]
    fn site_order_is_pac_site_declaration_order() {
        for (i, &s) in SITE_ORDER.iter().enumerate() {
            assert_eq!(s as usize, i, "{s:?}");
        }
    }

    /// Each function holds one op and one charge entry per instruction, its
    /// blocks' ranges tile its op vector in order, and each op carries the
    /// check-site id `rsti_core::check_sites` gives its instruction.
    fn assert_one_op_per_inst(img: &Image, what: &str) {
        let code = img.compiled();
        let funcs = code.funcs.as_ref().expect("id-checked image");
        let m = img.module();
        let sites = check_sites(m);
        let mut next_site = sites.iter();
        for (f, cf) in m.funcs.iter().zip(funcs) {
            assert_eq!(cf.ops.len(), f.inst_count(), "{what}: {}", f.name);
            assert_eq!(cf.charge.len(), f.inst_count(), "{what}: {}", f.name);
            let mut at = 0;
            for (bi, (b, cb)) in f.blocks.iter().zip(&cf.blocks).enumerate() {
                assert_eq!((cb.at, cb.len), (at, b.insts.len() as u32), "{what}: {} bb{bi}", f.name);
                at += cb.len;
                for (ii, op) in cf.ops(cb).iter().enumerate() {
                    let want = match rsti_core::check_kind(&b.insts[ii].inst) {
                        Some(_) => next_site.next().expect("site").id,
                        None => NO_SITE,
                    };
                    assert_eq!(op.site(), want, "{what}: {} bb{bi}[{ii}]", f.name);
                }
            }
            assert_eq!(at as usize, cf.ops.len(), "{what}: {}", f.name);
        }
        assert!(next_site.next().is_none(), "{what}: sites left over");
        assert_eq!(code.sites.len(), sites.len(), "{what}");
    }

    #[test]
    fn every_function_holds_one_op_per_instruction() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
        let mut programs: Vec<(String, Module)> = std::fs::read_dir(dir)
            .expect("corpus")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "mc"))
            .map(|p| {
                let src = std::fs::read_to_string(&p).expect("source");
                (p.display().to_string(), rsti_frontend::compile(&src, "t").expect("compiles"))
            })
            .collect();
        assert!(programs.len() >= 10, "corpus went missing");
        let proxy = &rsti_workloads::nbench()[0];
        programs.push((proxy.name.to_string(), proxy.proxy_module()));
        for (name, m) in &programs {
            for mech in [None, Some(Mechanism::Stwc), Some(Mechanism::Stl)] {
                for level in [OptLevel::None, OptLevel::Ipo] {
                    let (img, _) = Image::build(m, mech, level);
                    assert_one_op_per_inst(&img, &format!("{name} {mech:?} {level:?}"));
                }
            }
        }
    }
}
