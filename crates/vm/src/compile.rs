//! Translation of an image into pre-resolved ops, and the one driver
//! that executes them.
//!
//! [`compile_module`] translates every basic block, once per image, into a
//! chain of Rust closures (`OpFn`) with all per-instruction
//! resolution hoisted to translation time:
//!
//! * **operand slots** are pre-resolved — a register index, an immediate,
//!   or an already-laid-out global/string/function address — so executing
//!   an operand is an array load instead of an `Operand` match;
//! * **type layouts are pre-folded** — `Alloca` sizes, `FieldAddr`
//!   offsets, `IndexAddr` element sizes, and `Load` width dispatch become
//!   captured constants;
//! * **PAC call shapes are pre-computed** — key ids, static modifiers,
//!   site-class indices, and the enforcement-backend arm are chosen at
//!   compile time, and every sign or auth op goes through the one sign
//!   rule and the one auth rule ([`Vm::pa_sign`], [`Vm::pa_auth`]), which
//!   hold the only PAC-in-pointer vs MAC-table split;
//! * **check sites are numbered** — the walk builds the image's
//!   [`CheckSite`] table ([`CompiledModule::sites`]) and each PA op
//!   captures its own site id and position, which its recorder events and
//!   its failure report take directly;
//! * **terminators are pre-resolved** — `br`/`cond_br` successors and the
//!   `ret` operand become [`CompiledTerm`] slots.
//!
//! The closures are the one implementation of op semantics, and one
//! driver ([`Vm::drive`]) executes them: it direct-threads blocks through
//! branch successors and commits the frame position lazily — only where
//! it is observed. Each block is charged one of two ways:
//!
//! * **block pre-charge** (the fast path, [`ExecBackend::Compiled`]):
//!   the whole straight-line run and its terminator are charged up front
//!   from per-block cycle prefix sums and — with telemetry on — per-block
//!   opclass totals, and the unexecuted suffix is rolled back when an op
//!   traps or transfers control;
//! * **per-op charging** ([`Vm::exec_ops`]): every op is fuel-checked
//!   and charged before it runs. Reference accounting
//!   ([`ExecBackend::Interp`]) runs every block this way; the fast path
//!   drops here whenever per-op charging is observable: attribution, the
//!   flight recorder, or a fuel budget that may expire mid-block.
//!
//! The two accounting modes must be *observably identical*: same traps
//! (including `BadProgram` message text), same violation audit records,
//! same cycle-model and instruction accounting, same telemetry counters,
//! same attribution profiles and incidents. The parity tests and the
//! dual-mode fuzz oracle hold the block pre-charge and its rollback to
//! the per-op reference.
//!
//! Translation starts with `rsti_ir::check_ids`, once per image: an image
//! with an id that does not resolve gets no code, only the check's message,
//! and [`Vm::new`] loads it into a VM already trapped with
//! [`Trap::BadProgram`]. Every op is therefore translated against ids that
//! resolve, and only the value shapes a run produces are checked at run
//! time.

use super::*;
use rsti_ir::{BasicBlock, Function};
use std::cmp::Ordering;

/// What an op tells the driver to do next. Traps travel boxed so the
/// closure return value fits in registers — the unboxed `Result<_, Trap>`
/// is several words wide and forced a memory round-trip on *every* op
/// dispatch, trapping or not.
pub(crate) enum Control {
    /// Fall through to the next op in the block.
    Next,
    /// Control left the block (a frame was pushed): return to the driver.
    Transfer,
    /// The op trapped.
    Trap(Box<Trap>),
}

type OpFn = Box<dyn for<'a, 'b> Fn(&'a mut Vm<'b>) -> Control + Send + Sync>;

/// `?` for closures returning [`Control`]: unwraps a `Result` with a
/// [`Trap`] (or an already boxed one) or routes the trap through the
/// (boxed) control channel.
macro_rules! tri {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(t) => return Control::Trap(t.into()),
        }
    };
}

/// Per-op accounting charged by the per-op loop — kept out of the closure
/// array so the fast path streams only fat pointers.
pub(crate) struct OpCharge {
    /// Cycle cost ([`CostModel::cost`] of the source instruction).
    cost: u64,
    /// Opcode class index, for telemetry's per-op opclass counts.
    class: usize,
    /// Check-site id for PAC-family ops ([`NO_SITE`] otherwise): the op's
    /// index in [`CompiledModule::sites`], by which attribution keys its
    /// per-site stats.
    site: u32,
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
    ops: Vec<OpFn>,
    /// Slow-path accounting, parallel to `ops`.
    charge: Vec<OpCharge>,
    /// `cost_prefix[i]` = cycles of `ops[..i]`; length `ops.len() + 1`.
    /// Lets the fast path charge (and roll back) any run of ops with two
    /// subtractions instead of a loop.
    cost_prefix: Vec<u64>,
    /// `cost_prefix[ops.len()]`, inlined in the block header: entries at
    /// `idx == 0` — every transfer except a call resume — charge without
    /// touching the prefix-sum allocation.
    total_cost: u64,
    /// Ops per opcode class ([`OPCLASS_ORDER`]), terminator excluded: the
    /// fast path's telemetry count for a whole-block entry.
    class_counts: [u32; 6],
    term: CompiledTerm,
}

/// A compiled function body (empty for externals, which can never hold a
/// frame).
pub(crate) struct CompiledFunc {
    blocks: Vec<CompiledBlock>,
}

/// A fully compiled module, cached on the [`Image`].
pub(crate) struct CompiledModule {
    /// The translated bodies, or the id check's first failure for a
    /// malformed image.
    pub(crate) funcs: Result<Vec<CompiledFunc>, String>,
    /// The image's check sites, numbered by the translation walk in
    /// `(func, block, inst)` order — the `rsti_core::check_sites` table,
    /// built once per image. Each PA op carries its own id; attribution
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
    /// Frame register (generation-checked at read, like `Vm::eval`).
    Reg(ValueId),
    /// Immediate: constants, and global/string/function addresses folded
    /// against the module's deterministic layout.
    Imm(RtVal),
}

#[cold]
#[inline(never)]
fn undefined_use(v: ValueId) -> Trap {
    Trap::BadProgram(format!("use of undefined {v}"))
}

/// The silent int coercion of integer `Bin` operands.
#[inline(always)]
fn int_of(v: RtVal) -> i64 {
    match v {
        RtVal::I(i) => i,
        RtVal::P(p) => p as i64,
        RtVal::F(f) => f as i64,
    }
}

/// The float coercion of `F64` `Bin` operands, trap text included.
#[inline(always)]
fn float_of(v: RtVal) -> Result<f64, Trap> {
    match v {
        RtVal::F(f) => Ok(f),
        RtVal::I(i) => Ok(i as f64),
        RtVal::P(_) => Err(Trap::BadProgram("pointer in float op".into())),
    }
}

impl Slot {
    #[inline(always)]
    fn read(&self, vm: &Vm<'_>) -> Result<RtVal, Trap> {
        match self {
            Slot::Reg(v) => {
                let Some(&(tag, val)) = vm.regs.get(vm.reg_base + v.0 as usize) else {
                    return Err(oob("register", v.0 as usize));
                };
                if tag != vm.cur_gen {
                    return Err(undefined_use(*v));
                }
                Ok(val)
            }
            Slot::Imm(v) => Ok(*v),
        }
    }

    #[inline(always)]
    fn read_ptr(&self, vm: &Vm<'_>) -> Result<u64, Trap> {
        vm.as_ptr(self.read(vm)?)
    }
}

/// Monomorphic operand access. A closure body that reads through [`Slot`]
/// carries a per-execution variant branch — and because the closure code
/// is shared by every instruction instance of that opcode, the branch
/// site sees mixed Reg/Imm patterns and mispredicts. `dispatch2!` folds
/// the match away at compile time for the dominant combinations.
trait SlotR: Copy + Send + Sync + 'static {
    fn get(self, vm: &Vm<'_>) -> Result<RtVal, Trap>;
}

/// A known-register operand: just the bounds + generation check.
#[derive(Clone, Copy)]
struct RegS(ValueId);

/// A known-immediate operand: no runtime work at all.
#[derive(Clone, Copy)]
struct ImmS(RtVal);

impl SlotR for RegS {
    #[inline(always)]
    fn get(self, vm: &Vm<'_>) -> Result<RtVal, Trap> {
        let Some(&(tag, val)) = vm.regs.get(vm.reg_base + self.0 .0 as usize) else {
            return Err(oob("register", self.0 .0 as usize));
        };
        if tag != vm.cur_gen {
            return Err(undefined_use(self.0));
        }
        Ok(val)
    }
}

impl SlotR for ImmS {
    #[inline(always)]
    fn get(self, _vm: &Vm<'_>) -> Result<RtVal, Trap> {
        Ok(self.0)
    }
}

/// The generic fallback (covers `Imm x Imm` pairs the optimizer didn't
/// fold).
impl SlotR for Slot {
    #[inline(always)]
    fn get(self, vm: &Vm<'_>) -> Result<RtVal, Trap> {
        self.read(vm)
    }
}

/// Expands `$body` once per operand-kind combination of two slots, with
/// `$a`/`$b` bound to monomorphic [`SlotR`] accessors. Each expansion
/// builds its own closure type, so the `Slot` match runs at compile time,
/// not per executed op.
macro_rules! dispatch2 {
    ($l:expr, $r:expr, |$a:ident, $b:ident| $body:expr) => {
        match ($l, $r) {
            (Slot::Reg(x), Slot::Reg(y)) => {
                let ($a, $b) = (RegS(x), RegS(y));
                $body
            }
            (Slot::Reg(x), Slot::Imm(y)) => {
                let ($a, $b) = (RegS(x), ImmS(y));
                $body
            }
            (Slot::Imm(x), Slot::Reg(y)) => {
                let ($a, $b) = (ImmS(x), RegS(y));
                $body
            }
            (l, r) => {
                let ($a, $b) = (l, r);
                $body
            }
        }
    };
}

/// Single-slot counterpart of [`dispatch2!`].
macro_rules! dispatch1 {
    ($l:expr, |$a:ident| $body:expr) => {
        match $l {
            Slot::Reg(x) => {
                let $a = RegS(x);
                $body
            }
            Slot::Imm(x) => {
                let $a = ImmS(x);
                $body
            }
        }
    };
}

/// Pre-folded `Load` width dispatch, decided at compile time.
enum LoadKind {
    I8,
    I16,
    I32,
    I64,
    F64,
    Ptr,
    /// Unsupported pointee: the error, pre-rendered.
    Bad(String),
}

/// Pre-folded integer result width (`Bin` and `Convert`).
#[derive(Clone, Copy)]
enum WrapKind {
    Bool,
    I8,
    I16,
    I32,
    Pass,
}

impl WrapKind {
    #[inline(always)]
    fn apply(self, v: i64) -> i64 {
        match self {
            WrapKind::Bool => (v != 0) as i64,
            WrapKind::I8 => v as i8 as i64,
            WrapKind::I16 => v as i16 as i64,
            WrapKind::I32 => v as i32 as i64,
            WrapKind::Pass => v,
        }
    }
}

/// Pre-resolved direct-call target.
enum Callee {
    External { name: String, ret: TypeId },
    Internal(FuncId),
}

/// Shared compile context: the module plus its deterministic data layout,
/// which the loader then fills.
struct Cx<'m> {
    m: &'m Module,
    tl: TypeLayout,
    gaddr: &'m [u64],
    saddr: &'m [u64],
    cost: CostModel,
    backend: Backend,
    ty_i64: TypeId,
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

    fn load_kind(&self, ty: TypeId) -> LoadKind {
        match self.m.types.get(ty) {
            Type::Bool | Type::I8 => LoadKind::I8,
            Type::I16 => LoadKind::I16,
            Type::I32 => LoadKind::I32,
            Type::I64 => LoadKind::I64,
            Type::F64 => LoadKind::F64,
            Type::Ptr(_) => LoadKind::Ptr,
            other => LoadKind::Bad(format!("load of unsupported type {other:?}")),
        }
    }

    fn wrap_kind(&self, ty: TypeId) -> WrapKind {
        match self.m.types.get(ty) {
            Type::Bool => WrapKind::Bool,
            Type::I8 => WrapKind::I8,
            Type::I16 => WrapKind::I16,
            Type::I32 => WrapKind::I32,
            _ => WrapKind::Pass,
        }
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
        backend: img.backend,
        ty_i64: m.types.i64(),
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
            if f.is_external {
                return CompiledFunc { blocks: Vec::new() };
            }
            n_blocks += f.blocks.len() as u64;
            CompiledFunc {
                blocks: f
                    .blocks
                    .iter()
                    .enumerate()
                    .map(|(bi, b)| compile_block(&cx, fi, f, bi, b, &mut sites))
                    .collect(),
            }
        })
        .collect();
    CompiledModule { funcs: Ok(funcs), sites, gaddr, saddr, data_sizes: [goff, soff], n_blocks }
}

/// Compiles block `bi` of function `fi`, appending its check sites to
/// `sites`.
fn compile_block(
    cx: &Cx<'_>,
    fi: usize,
    f: &Function,
    bi: usize,
    b: &BasicBlock,
    sites: &mut Vec<CheckSite>,
) -> CompiledBlock {
    let mut ops = Vec::with_capacity(b.insts.len());
    let mut charge = Vec::with_capacity(b.insts.len());
    let mut cost_prefix = Vec::with_capacity(b.insts.len() + 1);
    let mut total = 0u64;
    let mut class_counts = [0u32; 6];
    cost_prefix.push(0);
    for (i, node) in b.insts.iter().enumerate() {
        let cost = cx.cost.cost(&node.inst);
        total += cost;
        cost_prefix.push(total);
        let check = CheckSite::at(sites.len() as u32, fi, f, bi, i, node);
        let site = check.as_ref().map_or(NO_SITE, |c| c.id);
        sites.extend(check);
        let at = CheckAt { site, block: bi as u32, next_idx: i as u32 + 1 };
        ops.push(compile_inst(cx, f, at, &node.inst));
        let class = opcode_class(&node.inst);
        class_counts[class] += 1;
        charge.push(OpCharge { cost, class, site });
    }
    let term = match &b.term {
        Terminator::Br(bb) => CompiledTerm::Br(bb.0),
        Terminator::CondBr { cond, then_bb, else_bb } => match cx.resolve(cond) {
            Slot::Reg(v) => {
                CompiledTerm::CondBrReg { v, then_bb: then_bb.0, else_bb: else_bb.0 }
            }
            cond => CompiledTerm::CondBr { cond, then_bb: then_bb.0, else_bb: else_bb.0 },
        },
        Terminator::Ret(v) => CompiledTerm::Ret(v.as_ref().map(|v| cx.resolve(v))),
        Terminator::Unreachable => CompiledTerm::Unreachable,
    };
    CompiledBlock {
        ops,
        charge,
        cost_prefix,
        total_cost: total,
        class_counts,
        term,
    }
}

impl Vm<'_> {
    /// The sign rule, for both enforcement backends. PAC-in-pointer
    /// returns the signed bits; the MAC table counts the sign, stages the
    /// MAC for the store that follows, and returns `p` unchanged. Either
    /// way the recorder sees the value returned.
    #[inline(always)]
    fn pa_sign(&mut self, op: PaOp, p: u64, modifier: u64) -> u64 {
        let signed = if op.mac {
            self.pac.sign_count += 1;
            self.pending_mac = Some(self.pac.compute_pac(op.key, p, modifier));
            p
        } else {
            self.pac.sign(op.key, p, modifier)
        };
        if self.rec.is_some() {
            self.rec_push(RecKind::Sign, op.at.site, signed, modifier, Some(op.key));
        }
        signed
    }

    /// The auth rule, for both enforcement backends, returning the
    /// authenticated pointer. PAC-in-pointer checks the pointer's PAC and
    /// strips it; the MAC table checks the MAC staged by the sign just
    /// before or else the table entry of the slot last loaded from, and
    /// returns `p` unchanged. A miss is reported by [`Vm::auth_fail`].
    #[inline(always)]
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
                Err(e) => {
                    return Err(self.auth_fail(op, p, modifier, e.found_pac, e.expected_pac))
                }
            }
        };
        if self.rec.is_some() {
            self.rec_push(RecKind::Auth, op.at.site, p, modifier, Some(op.key));
        }
        Ok(clean)
    }
}

/// Compiles one instruction into a closure. `at` is its check-site id and
/// its position: calls commit that position as the caller's resume
/// point, and a failing check's report looks up its site.
fn compile_inst(cx: &Cx<'_>, f: &Function, at: CheckAt, inst: &Inst) -> OpFn {
    let mac = cx.backend == Backend::MacTable;
    match inst {
        Inst::Alloca { result, ty, .. } => {
            let result = *result;
            let size = cx.tl.size_of(*ty).max(1).div_ceil(8).saturating_mul(8);
            Box::new(move |vm| {
                let fr = vm.frames.last().expect("frame");
                let (tag, cached) = fr.alloca_cache[result.0 as usize];
                if tag == fr.gen {
                    vm.set(result, RtVal::P(cached));
                    return Control::Next;
                }
                let addr = vm.stack_top;
                if addr
                    .checked_add(size)
                    .is_none_or(|end| end >= layout::STACK_BASE + layout::STACK_SIZE)
                {
                    return Control::Trap(Box::new(Trap::StackOverflow));
                }
                vm.stack_top += size;
                tri!(vm.mem.write_zeros(addr, size).map_err(|e| vm.mem_err(e)));
                let fr = vm.frames.last_mut().expect("frame");
                fr.alloca_cache[result.0 as usize] = (fr.gen, addr);
                vm.set(result, RtVal::P(addr));
                Control::Next
            })
        }
        Inst::Load { result, ptr, ty } => {
            let result = *result;
            let ptr = cx.resolve(ptr);
            let kind = cx.load_kind(*ty);
            let track = mac && cx.m.types.is_ptr(*ty);
            // One closure per width (and per pointer-operand kind), so the
            // executed path is ptr read -> canonicalize -> one fixed-width
            // memory read -> register write, with no dispatch left.
            dispatch1!(ptr, |ps| {
                macro_rules! load_c {
                    (|$vm:ident, $addr:ident| $body:expr) => {
                        Box::new(move |$vm: &mut Vm<'_>| {
                            let p = tri!($vm.as_ptr(tri!(ps.get($vm))));
                            let $addr = tri!($vm.deref_addr(p));
                            let v = $body;
                            if track {
                                $vm.last_ptr_load = Some($addr);
                            }
                            $vm.set(result, v);
                            Control::Next
                        })
                    };
                }
                match kind {
                    LoadKind::I8 => load_c!(|vm, addr| {
                        let b = tri!(vm.mem.read_arr::<1>(addr).map_err(|e| vm.mem_err(e)));
                        RtVal::I(b[0] as i8 as i64)
                    }),
                    LoadKind::I16 => load_c!(|vm, addr| {
                        let b = tri!(vm.mem.read_arr::<2>(addr).map_err(|e| vm.mem_err(e)));
                        RtVal::I(i16::from_le_bytes(b) as i64)
                    }),
                    LoadKind::I32 => load_c!(|vm, addr| {
                        let b = tri!(vm.mem.read_arr::<4>(addr).map_err(|e| vm.mem_err(e)));
                        RtVal::I(i32::from_le_bytes(b) as i64)
                    }),
                    LoadKind::I64 => load_c!(|vm, addr| {
                        let b = tri!(vm.mem.read_arr::<8>(addr).map_err(|e| vm.mem_err(e)));
                        RtVal::I(i64::from_le_bytes(b))
                    }),
                    LoadKind::F64 => load_c!(|vm, addr| {
                        let b = tri!(vm.mem.read_arr::<8>(addr).map_err(|e| vm.mem_err(e)));
                        RtVal::F(f64::from_le_bytes(b))
                    }),
                    // Written out (not via `load_c!`) for the recorder
                    // hook: a load through a pointer-typed slot is a
                    // lifecycle event.
                    LoadKind::Ptr => Box::new(move |vm: &mut Vm<'_>| {
                        let p = tri!(vm.as_ptr(tri!(ps.get(vm))));
                        let addr = tri!(vm.deref_addr(p));
                        let b = tri!(vm.mem.read_arr::<8>(addr).map_err(|e| vm.mem_err(e)));
                        let bits = u64::from_le_bytes(b);
                        if track {
                            vm.last_ptr_load = Some(addr);
                        }
                        if vm.rec.is_some() {
                            vm.rec_plain(RecKind::Load, addr, bits);
                        }
                        vm.set(result, RtVal::P(bits));
                        Control::Next
                    }),
                    // The unsupported-type error comes only after the
                    // pointer itself resolved, so the bad
                    // arm still evaluates and canonicalizes it first.
                    LoadKind::Bad(msg) => Box::new(move |vm: &mut Vm<'_>| {
                        let p = tri!(vm.as_ptr(tri!(ps.get(vm))));
                        tri!(vm.deref_addr(p));
                        Control::Trap(Box::new(Trap::BadProgram(msg.clone())))
                    }),
                }
            })
        }
        Inst::Store { value, ptr } => {
            let value_s = cx.resolve(value);
            let ptr_s = cx.resolve(ptr);
            // The slot (pointee) type the store writes through; `None`
            // falls back by value shape.
            let sty = match ptr {
                Operand::Value(v) => cx.m.types.pointee(f.value_type(*v)),
                Operand::GlobalAddr(_, t) | Operand::Null(t) | Operand::Str(_, t) => {
                    cx.m.types.pointee(*t)
                }
                _ => None,
            };
            let ty_i64 = cx.ty_i64;
            // One closure per pre-decided slot-type source and width (and
            // per operand-kind combination, via `dispatch2!`), so the hot
            // (statically-typed) stores carry neither the slot-type
            // derivation nor `store_typed`'s width match. The
            // shape-mismatch arms defer to `store_typed` itself, which
            // owns the error text (and the conversions, for F64).
            dispatch2!(value_s, ptr_s, |vs, ps| {
                // The shared prologue: value read, pointer read +
                // canonicalize, and the MAC handoff, in that order.
                macro_rules! prologue {
                    ($vm:ident, $v:ident, $addr:ident) => {
                        let $v = tri!(vs.get($vm));
                        let p = tri!($vm.as_ptr(tri!(ps.get($vm))));
                        let $addr = tri!($vm.deref_addr(p));
                        if mac {
                            if let Some(m) = $vm.pending_mac.take() {
                                $vm.mac_table.insert($addr, m);
                            }
                        }
                    };
                }
                macro_rules! store_c {
                    ($ty:expr, $pat:pat => $bytes:expr) => {{
                        let ty = $ty;
                        Box::new(move |vm: &mut Vm<'_>| {
                            prologue!(vm, v, addr);
                            match v {
                                $pat => {
                                    tri!(vm.mem.write_arr(addr, $bytes).map_err(|e| vm.mem_err(e)))
                                }
                                other => tri!(vm.store_typed(addr, ty, other)),
                            }
                            Control::Next
                        })
                    }};
                }
                match sty {
                    Some(ty) => match cx.m.types.get(ty) {
                        Type::Bool | Type::I8 => store_c!(ty, RtVal::I(i) => [i as u8]),
                        Type::I16 => store_c!(ty, RtVal::I(i) => (i as i16).to_le_bytes()),
                        Type::I32 => store_c!(ty, RtVal::I(i) => (i as i32).to_le_bytes()),
                        Type::I64 => store_c!(ty, RtVal::I(i) => i.to_le_bytes()),
                        Type::F64 => Box::new(move |vm: &mut Vm<'_>| {
                            prologue!(vm, v, addr);
                            let f = match v {
                                RtVal::F(f) => f,
                                RtVal::I(i) => i as f64,
                                other => {
                                    tri!(vm.store_typed(addr, ty, other));
                                    return Control::Next;
                                }
                            };
                            tri!(vm
                                .mem
                                .write_arr(addr, f.to_le_bytes())
                                .map_err(|e| vm.mem_err(e)));
                            Control::Next
                        }),
                        Type::Ptr(_) => Box::new(move |vm: &mut Vm<'_>| {
                            prologue!(vm, v, addr);
                            let pv = tri!(vm.as_ptr(v));
                            tri!(vm
                                .mem
                                .write_arr(addr, pv.to_le_bytes())
                                .map_err(|e| vm.mem_err(e)));
                            // Mirrors `store_typed`'s ptr-slot recorder
                            // event (this closure inlines that arm).
                            if vm.rec.is_some() {
                                vm.rec_plain(RecKind::Store, addr, pv);
                            }
                            Control::Next
                        }),
                        // Unsupported slot type: `store_typed`'s error,
                        // lazily.
                        _ => Box::new(move |vm: &mut Vm<'_>| {
                            prologue!(vm, v, addr);
                            tri!(vm.store_typed(addr, ty, v));
                            Control::Next
                        }),
                    },
                    None => Box::new(move |vm: &mut Vm<'_>| {
                        prologue!(vm, v, addr);
                        // Shape-derived slot type: I and F write their
                        // natural width; P derives i64 and lets
                        // `store_typed` produce the mismatch error.
                        match v {
                            RtVal::I(i) => tri!(vm
                                .mem
                                .write_arr(addr, i.to_le_bytes())
                                .map_err(|e| vm.mem_err(e))),
                            RtVal::F(f) => tri!(vm
                                .mem
                                .write_arr(addr, f.to_le_bytes())
                                .map_err(|e| vm.mem_err(e))),
                            other => tri!(vm.store_typed(addr, ty_i64, other)),
                        }
                        Control::Next
                    }),
                }
            })
        }
        Inst::FieldAddr { result, base, struct_id, field } => {
            let result = *result;
            let base = cx.resolve(base);
            let off = cx.tl.field_offset(*struct_id, *field);
            dispatch1!(base, |bs| {
                Box::new(move |vm: &mut Vm<'_>| {
                    let b = tri!(vm.as_ptr(tri!(bs.get(vm))));
                    vm.set(result, RtVal::P(b.wrapping_add(off)));
                    Control::Next
                })
            })
        }
        Inst::IndexAddr { result, base, index, elem_ty } => {
            let result = *result;
            let base = cx.resolve(base);
            let index = cx.resolve(index);
            let sz = cx.tl.size_of(*elem_ty).max(1) as i64;
            dispatch2!(base, index, |bs, is| {
                Box::new(move |vm: &mut Vm<'_>| {
                    let b = tri!(vm.as_ptr(tri!(bs.get(vm))));
                    let i = match tri!(is.get(vm)) {
                        RtVal::I(i) => i,
                        RtVal::P(p) => p as i64,
                        RtVal::F(_) => {
                            return Control::Trap(Box::new(Trap::BadProgram("float index".into())))
                        }
                    };
                    vm.set(result, RtVal::P(b.wrapping_add(i.wrapping_mul(sz) as u64)));
                    Control::Next
                })
            })
        }
        Inst::BitCast { result, value, .. } => {
            let result = *result;
            let value = cx.resolve(value);
            dispatch1!(value, |vs| {
                Box::new(move |vm: &mut Vm<'_>| {
                    let v = tri!(vs.get(vm));
                    vm.set(result, v);
                    Control::Next
                })
            })
        }
        Inst::Convert { result, value, to } => {
            let result = *result;
            let value = cx.resolve(value);
            let to_f64 = matches!(cx.m.types.get(*to), Type::F64);
            let wk = cx.wrap_kind(*to);
            dispatch1!(value, |vs| {
                Box::new(move |vm: &mut Vm<'_>| {
                    let v = tri!(vs.get(vm));
                    let out = match (v, to_f64) {
                        (RtVal::I(i), true) => RtVal::F(i as f64),
                        (RtVal::F(fv), true) => RtVal::F(fv),
                        (RtVal::F(fv), false) => RtVal::I(wk.apply(fv as i64)),
                        (RtVal::I(i), false) => RtVal::I(wk.apply(i)),
                        (RtVal::P(p), _) => RtVal::I(wk.apply(p as i64)),
                    };
                    vm.set(result, out);
                    Control::Next
                })
            })
        }
        Inst::Bin { result, op, lhs, rhs, ty } => {
            let (result, op, ty) = (*result, *op, *ty);
            let lhs = cx.resolve(lhs);
            let rhs = cx.resolve(rhs);
            if matches!(cx.m.types.get(ty), Type::F64) {
                return dispatch2!(lhs, rhs, |a, b| {
                    macro_rules! fbin {
                        ($f:expr) => {
                            Box::new(move |vm: &mut Vm<'_>| {
                                let fa = tri!(float_of(tri!(a.get(vm))));
                                let fb = tri!(float_of(tri!(b.get(vm))));
                                let f: fn(f64, f64) -> f64 = $f;
                                vm.set(result, RtVal::F(f(fa, fb)));
                                Control::Next
                            })
                        };
                    }
                    match op {
                        BinOp::Add => fbin!(|x, y| x + y),
                        BinOp::Sub => fbin!(|x, y| x - y),
                        BinOp::Mul => fbin!(|x, y| x * y),
                        BinOp::Div => fbin!(|x, y| x / y),
                        BinOp::Rem => fbin!(|x, y| x % y),
                        // Both operands still coerce first: an lhs error
                        // wins over an rhs error, both over this one.
                        _ => Box::new(move |vm: &mut Vm<'_>| {
                            tri!(float_of(tri!(a.get(vm))));
                            tri!(float_of(tri!(b.get(vm))));
                            Control::Trap(Box::new(Trap::BadProgram("bitwise op on float".into())))
                        }),
                    }
                });
            }
            let wk = cx.wrap_kind(ty);
            dispatch2!(lhs, rhs, |a, b| {
                macro_rules! ibin {
                    ($f:expr) => {
                        Box::new(move |vm: &mut Vm<'_>| {
                            let ia = int_of(tri!(a.get(vm)));
                            let ib = int_of(tri!(b.get(vm)));
                            let f: fn(i64, i64) -> i64 = $f;
                            vm.set(result, RtVal::I(wk.apply(f(ia, ib))));
                            Control::Next
                        })
                    };
                }
                macro_rules! idiv {
                    ($f:expr) => {
                        Box::new(move |vm: &mut Vm<'_>| {
                            let ia = int_of(tri!(a.get(vm)));
                            let ib = int_of(tri!(b.get(vm)));
                            if ib == 0 {
                                return Control::Trap(Box::new(Trap::DivByZero {
                                    func: vm.cur_func_name(),
                                }));
                            }
                            let f: fn(i64, i64) -> i64 = $f;
                            vm.set(result, RtVal::I(wk.apply(f(ia, ib))));
                            Control::Next
                        })
                    };
                }
                match op {
                    BinOp::Add => ibin!(|x, y| x.wrapping_add(y)),
                    BinOp::Sub => ibin!(|x, y| x.wrapping_sub(y)),
                    BinOp::Mul => ibin!(|x, y| x.wrapping_mul(y)),
                    BinOp::Div => idiv!(|x, y| x.wrapping_div(y)),
                    BinOp::Rem => idiv!(|x, y| x.wrapping_rem(y)),
                    BinOp::And => ibin!(|x, y| x & y),
                    BinOp::Or => ibin!(|x, y| x | y),
                    BinOp::Xor => ibin!(|x, y| x ^ y),
                    BinOp::Shl => ibin!(|x, y| x.wrapping_shl(y as u32 & 63)),
                    BinOp::Shr => ibin!(|x, y| x.wrapping_shr(y as u32 & 63)),
                }
            })
        }
        Inst::Cmp { result, op, lhs, rhs } => {
            let (result, op) = (*result, *op);
            let lhs = cx.resolve(lhs);
            let rhs = cx.resolve(rhs);
            // One closure per comparison op over the shared `ord_vals`,
            // so the op match disappears from the hot path.
            dispatch2!(lhs, rhs, |a, b| {
                macro_rules! cbin {
                    ($t:expr) => {
                        Box::new(move |vm: &mut Vm<'_>| {
                            let av = tri!(a.get(vm));
                            let bv = tri!(b.get(vm));
                            let t: fn(Ordering) -> bool = $t;
                            vm.set(result, RtVal::I(t(ord_vals(av, bv)) as i64));
                            Control::Next
                        })
                    };
                }
                match op {
                    CmpOp::Eq => cbin!(|o| o == Ordering::Equal),
                    CmpOp::Ne => cbin!(|o| o != Ordering::Equal),
                    CmpOp::Lt => cbin!(|o| o == Ordering::Less),
                    CmpOp::Le => cbin!(|o| o != Ordering::Greater),
                    CmpOp::Gt => cbin!(|o| o == Ordering::Greater),
                    CmpOp::Ge => cbin!(|o| o != Ordering::Less),
                }
            })
        }
        Inst::Call { result, callee, args } => {
            let result = *result;
            let args: Vec<Slot> = args.iter().map(|a| cx.resolve(a)).collect();
            let cf = cx.m.func(*callee);
            let kind = if cf.is_external {
                Callee::External { name: cf.name.clone(), ret: cf.sig.ret }
            } else {
                Callee::Internal(*callee)
            };
            Box::new(move |vm| {
                let mut argv = std::mem::take(&mut vm.call_args);
                argv.clear();
                for a in &args {
                    match a.read(vm) {
                        Ok(v) => argv.push(v),
                        Err(e) => {
                            vm.call_args = argv;
                            return Control::Trap(Box::new(e));
                        }
                    }
                }
                let r = match &kind {
                    Callee::External { name, ret } => {
                        let v = vm.external_call(name, &argv, *ret);
                        if let (Some(rr), Some(v)) = (result, v) {
                            vm.set(rr, v);
                        }
                        Control::Next
                    }
                    Callee::Internal(fid) => {
                        // The caller resumes after this instruction.
                        vm.commit_pos(at);
                        match vm.push_frame(*fid, &argv, result) {
                            Ok(()) => Control::Transfer,
                            Err(t) => Control::Trap(Box::new(t)),
                        }
                    }
                };
                vm.call_args = argv;
                r
            })
        }
        Inst::CallIndirect { result, callee, args, sig } => {
            let result = *result;
            let callee = cx.resolve(callee);
            let args: Vec<Slot> = args.iter().map(|a| cx.resolve(a)).collect();
            let ret = sig.ret;
            Box::new(move |vm| {
                let p = tri!(callee.read_ptr(vm));
                if !VA.is_canonical(p) {
                    return Control::Trap(Box::new(Trap::NonCanonicalCall {
                        func: vm.cur_func_name(),
                        ptr: p,
                    }));
                }
                let target = VA.canonical(p);
                let Some((fid, external)) = resolve_code_addr(&vm.img.module, target) else {
                    return Control::Trap(Box::new(Trap::CallNonFunction {
                        func: vm.cur_func_name(),
                        target,
                    }));
                };
                let mut argv = std::mem::take(&mut vm.call_args);
                argv.clear();
                for a in &args {
                    match a.read(vm) {
                        Ok(v) => argv.push(v),
                        Err(e) => {
                            vm.call_args = argv;
                            return Control::Trap(Box::new(e));
                        }
                    }
                }
                let r = if external {
                    let name = vm.img.module.funcs[fid.0 as usize].name.clone();
                    let v = vm.external_call(&name, &argv, ret);
                    if let (Some(rr), Some(v)) = (result, v) {
                        vm.set(rr, v);
                    }
                    Control::Next
                } else {
                    vm.commit_pos(at);
                    match vm.push_frame(fid, &argv, result) {
                        Ok(()) => Control::Transfer,
                        Err(t) => Control::Trap(Box::new(t)),
                    }
                };
                vm.call_args = argv;
                r
            })
        }
        Inst::Malloc { result, size, .. } => {
            let result = *result;
            let size = cx.resolve(size);
            Box::new(move |vm| {
                let sz = match tri!(size.read(vm)) {
                    RtVal::I(i) => i.max(0) as u64,
                    RtVal::P(p) => p,
                    RtVal::F(_) => {
                        return Control::Trap(Box::new(Trap::BadProgram(
                            "float malloc size".into(),
                        )))
                    }
                };
                let addr = tri!(vm.alloc.malloc(sz).ok_or(Trap::HeapExhausted));
                vm.set(result, RtVal::P(addr));
                Control::Next
            })
        }
        Inst::Free { ptr } => {
            let ptr = cx.resolve(ptr);
            Box::new(move |vm| {
                let p = tri!(ptr.read_ptr(vm));
                let a = VA.canonical(p);
                if vm.rec.is_some() {
                    vm.rec_plain(RecKind::Free, a, p);
                }
                if a != 0 && !vm.alloc.free(a) {
                    vm.events.push(ExtEvent {
                        name: "invalid_free".into(),
                        args: vec![format!("{a:#x}")],
                        critical: false,
                    });
                }
                Control::Next
            })
        }
        Inst::PrintInt { value } => {
            let value = cx.resolve(value);
            Box::new(move |vm| {
                let v = tri!(value.read(vm));
                vm.output.push(v.to_string());
                Control::Next
            })
        }
        Inst::PrintStr { s } => {
            let text = cx.m.strings[s.0 as usize].clone();
            Box::new(move |vm| {
                vm.output.push(text.clone());
                Control::Next
            })
        }
        Inst::PacSign { result, value, key, modifier, loc, site } => {
            let result = *result;
            let value = cx.resolve(value);
            let op = PaOp { mac, key: key_id(*key), class: *site, at };
            let modifier = *modifier;
            let loc = loc.as_ref().map(|l| cx.resolve(l));
            let si = site_index(*site);
            Box::new(move |vm| {
                vm.site_counts[si] += 1;
                let p = tri!(value.read_ptr(vm));
                let modifier = match &loc {
                    None => modifier,
                    Some(l) => modifier ^ VA.canonical(tri!(l.read_ptr(vm))),
                };
                let signed = vm.pa_sign(op, p, modifier);
                vm.set(result, RtVal::P(signed));
                Control::Next
            })
        }
        Inst::PacAuth { result, value, key, modifier, loc, site } => {
            let result = *result;
            let value = cx.resolve(value);
            let op = PaOp { mac, key: key_id(*key), class: *site, at };
            let modifier = *modifier;
            let loc = loc.as_ref().map(|l| cx.resolve(l));
            let si = site_index(*site);
            Box::new(move |vm| {
                vm.site_counts[si] += 1;
                let p = tri!(value.read_ptr(vm));
                let modifier = match &loc {
                    None => modifier,
                    Some(l) => modifier ^ VA.canonical(tri!(l.read_ptr(vm))),
                };
                let clean = tri!(vm.pa_auth(op, p, modifier));
                vm.set(result, RtVal::P(clean));
                Control::Next
            })
        }
        Inst::PacStrip { result, value } => {
            let result = *result;
            let value = cx.resolve(value);
            let si = site_index(PacSite::ExternalStrip);
            Box::new(move |vm| {
                vm.site_counts[si] += 1;
                let p = tri!(value.read_ptr(vm));
                let stripped = vm.pac.strip(p);
                if vm.rec.is_some() {
                    vm.rec_push(RecKind::Strip, at.site, p, 0, None);
                }
                vm.set(result, RtVal::P(stripped));
                Control::Next
            })
        }
        Inst::PpAdd { ce, fe_modifier } => {
            let (ce, fe) = (*ce, *fe_modifier);
            Box::new(move |vm| match vm.pp_table.get(&ce) {
                Some(&had) if had != fe => {
                    let f = PpFail::Conflict { ce: ce as u64, had };
                    Control::Trap(vm.pp_fail(at, fe, f, 0, None))
                }
                _ => {
                    vm.pp_table.insert(ce, fe);
                    Control::Next
                }
            })
        }
        Inst::PpSign { result, value, ce, key } => {
            let result = *result;
            let value = cx.resolve(value);
            let ce = *ce;
            let op = PaOp { mac, key: key_id(*key), class: PacSite::OnLoad, at };
            Box::new(move |vm| {
                let p = tri!(value.read_ptr(vm));
                let Some(&fe) = vm.pp_table.get(&ce) else {
                    let f = PpFail::NotRegistered { ce: ce as u64 };
                    return Control::Trap(vm.pp_fail(at, ce as u64, f, p, Some(op.key)));
                };
                let signed = vm.pa_sign(op, p, fe);
                vm.set(result, RtVal::P(signed));
                Control::Next
            })
        }
        Inst::PpAddTbi { result, value, ce } => {
            let result = *result;
            let value = cx.resolve(value);
            let ce = *ce;
            Box::new(move |vm| {
                let p = tri!(value.read_ptr(vm));
                let tagged = VA.with_tbi_tag(p, ce);
                vm.set(result, RtVal::P(tagged));
                Control::Next
            })
        }
        Inst::PpAuth { result, value, key } => {
            let result = *result;
            let value = cx.resolve(value);
            let op = PaOp { mac, key: key_id(*key), class: PacSite::OnLoad, at };
            Box::new(move |vm| {
                let p = tri!(value.read_ptr(vm));
                let ce = VA.tbi_tag(p);
                if ce == 0 {
                    return Control::Trap(vm.pp_fail(at, 0, PpFail::MissingTag, p, Some(op.key)));
                }
                let Some(&fe) = vm.pp_table.get(&ce) else {
                    let f = PpFail::NotInStore { ce: ce as u64 };
                    return Control::Trap(vm.pp_fail(at, ce as u64, f, p, Some(op.key)));
                };
                let clean = tri!(vm.pa_auth(op, VA.clear_tbi(p), fe));
                vm.set(result, RtVal::P(clean));
                Control::Next
            })
        }
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
        let mut func = fr.func.0 as usize;
        let mut block = fr.block;
        let mut idx = fr.idx;
        // The block table changes only when the frame does (a return),
        // so resolve it per function, not per block.
        let mut fblocks = &code[func].blocks;
        let branch_cost = CostModel::for_mechanism(self.img.mechanism).branch;
        // Loop-invariant driver state lives in registers: telemetry
        // tracing, attribution and the recorder cannot toggle mid-run, and
        // the fuel headroom only needs re-deriving after the per-op loop
        // charges op by op. Attribution and the recorder force the per-op
        // loop: the sampler and the recorder's event timestamps need
        // per-op charge order, which the block pre-charge does not keep.
        // Reference accounting (`ExecBackend::Interp`) takes the per-op
        // loop for every block.
        let trace = self.trace_enabled;
        let per_op =
            self.attr.is_some() || self.rec.is_some() || self.img.exec == ExecBackend::Interp;
        let mut budget = self.fuel.saturating_sub(self.insts);
        loop {
            let cb = &fblocks[block];
            let n = cb.ops.len();
            let remaining = (n - idx) as u64 + 1;
            if !per_op && remaining <= budget {
                // Fast path: charge the whole straight-line run *and the
                // terminator* up front (cycle prefix sums, and with
                // telemetry on the opclass counts), roll back the
                // unexecuted suffix on any early exit. Totals match per-op
                // charging exactly: the entry condition guarantees the
                // per-op fuel check could not have fired anywhere in this
                // block either.
                budget -= remaining;
                self.insts += remaining;
                // `idx == 0` on every transfer except a call resume: the
                // whole-block cost sits in the block header, sparing the
                // prefix-sum indexing on the common path.
                self.cycles += branch_cost
                    + if idx == 0 {
                        cb.total_cost
                    } else {
                        cb.cost_prefix[n] - cb.cost_prefix[idx]
                    };
                if trace {
                    self.count_classes(cb, idx);
                }
                let mut j = idx;
                for op in &cb.ops[idx..] {
                    match op(self) {
                        Control::Next => j += 1,
                        Control::Transfer => {
                            self.rollback_suffix(cb, j, n, branch_cost, trace);
                            return Ok(());
                        }
                        Control::Trap(t) => {
                            self.rollback_suffix(cb, j, n, branch_cost, trace);
                            return Err(*t);
                        }
                    }
                }
            } else {
                if !self.exec_ops_cold(cb, idx)? {
                    return Ok(());
                }
                budget = self.fuel.saturating_sub(self.insts);
            }
            match self.exec_term(&cb.term)? {
                Some(next) => block = next,
                None => {
                    if self.frames.len() != depth || self.status.is_some() {
                        return Ok(());
                    }
                    // Same depth with the run still live: the corrupted-
                    // return path swapped this frame for a "gadget"
                    // frame. Re-read the position and continue there.
                    let fr = self.frames.last().expect("active frame");
                    func = fr.func.0 as usize;
                    block = fr.block;
                    idx = fr.idx;
                    fblocks = &code[func].blocks;
                    if single_block {
                        return Ok(());
                    }
                    budget = self.fuel.saturating_sub(self.insts);
                    continue;
                }
            }
            // Straight-line transfers track the position in locals only.
            // The frame is written exactly where it is observed: by
            // committing closures (calls) and — here — when watch mode
            // must see every block entry.
            idx = 0;
            if single_block {
                let fr = self.frames.last_mut().expect("active frame");
                fr.block = block;
                fr.idx = 0;
                return Ok(());
            }
        }
    }

    /// Reverses the fast path's pre-charge for ops `j+1..n` and the
    /// terminator, which did not execute because op `j` trapped or
    /// transferred control. (A transferring call re-charges the suffix —
    /// terminator included — when the frame resumes at `j+1`.)
    #[inline]
    fn rollback_suffix(
        &mut self,
        cb: &CompiledBlock,
        j: usize,
        n: usize,
        branch_cost: u64,
        trace: bool,
    ) {
        self.insts -= (n - (j + 1)) as u64 + 1;
        self.cycles -= cb.cost_prefix[n] - cb.cost_prefix[j + 1] + branch_cost;
        if trace {
            for c in &cb.charge[j + 1..] {
                self.opclass[c.class] -= 1;
            }
            self.opclass[OPCLASS_BRANCH] -= 1;
        }
    }

    /// The fast path's opclass pre-count for ops `idx..` and the
    /// terminator: the block's translated per-class totals on a block
    /// entry, the charge stream's classes on a call resume.
    fn count_classes(&mut self, cb: &CompiledBlock, idx: usize) {
        if idx == 0 {
            for (c, k) in self.opclass.iter_mut().zip(cb.class_counts) {
                *c += u64::from(k);
            }
        } else {
            for c in &cb.charge[idx..] {
                self.opclass[c.class] += 1;
            }
        }
        self.opclass[OPCLASS_BRANCH] += 1;
    }

    /// The per-op loop: ops `idx..` of block `cb`, each fuel-checked and
    /// charged before it runs, then the terminator's charge. Reference accounting runs
    /// every block through here; the fast path drops here whenever per-op
    /// charging is observable (attribution, the recorder, or fuel that may
    /// run out mid-block). Returns `true` when the block ran to its
    /// terminator, `false` when an op transferred control out of the
    /// frame.
    #[inline(never)]
    fn exec_ops(&mut self, cb: &CompiledBlock, idx: usize) -> Result<bool, Trap> {
        let observed = self.attr.is_some();
        for (op, charge) in cb.ops[idx..].iter().zip(&cb.charge[idx..]) {
            if self.insts >= self.fuel {
                return Err(Trap::FuelExhausted);
            }
            self.insts += 1;
            if self.trace_enabled {
                self.opclass[charge.class] += 1;
            }
            self.cycles += charge.cost;
            let ctl = if observed { self.exec_op_observed(op, charge) } else { op(self) };
            match ctl {
                Control::Next => {}
                Control::Transfer => return Ok(false),
                Control::Trap(t) => return Err(*t),
            }
        }
        self.charge_block_transfer()?;
        Ok(true)
    }

    /// The driver's entry into [`Vm::exec_ops`], marked cold so the fast
    /// path's code layout treats it as the exception it is.
    #[cold]
    #[inline(never)]
    fn exec_ops_cold(&mut self, cb: &CompiledBlock, idx: usize) -> Result<bool, Trap> {
        self.exec_ops(cb, idx)
    }

    /// One op with attribution on: the sampler runs after the op's charge
    /// and per-site accounting wraps the op. Outlined so the unobserved
    /// loop stays small.
    #[inline(never)]
    fn exec_op_observed(&mut self, op: &OpFn, charge: &OpCharge) -> Control {
        self.attr_maybe_sample();
        if charge.site == NO_SITE {
            return op(self);
        }
        let (s0, a0) = (self.pac.sign_count, self.pac.auth_count);
        let ctl = op(self);
        self.attr_record_site(charge.site, charge.cost, s0, a0, matches!(ctl, Control::Trap(_)));
        ctl
    }

    /// Executes a block's terminator, after its transfer charge. A branch
    /// only names its successor, `Some(block)`: the driver tracks the
    /// position in locals. `ret` and `unreachable` run here and return
    /// `None`.
    #[inline(always)]
    fn exec_term(&mut self, t: &CompiledTerm) -> Result<Option<usize>, Trap> {
        let (cond, then_bb, else_bb) = match t {
            CompiledTerm::Br(bb) => return Ok(Some(*bb as usize)),
            CompiledTerm::CondBrReg { v, then_bb, else_bb } => (RegS(*v).get(self)?, then_bb, else_bb),
            CompiledTerm::CondBr { cond, then_bb, else_bb } => (cond.read(self)?, then_bb, else_bb),
            CompiledTerm::Ret(v) => {
                let val = match v {
                    Some(s) => Some(s.read(self)?),
                    None => None,
                };
                self.exec_ret(val)?;
                return Ok(None);
            }
            CompiledTerm::Unreachable => return Err(unreachable_reached(&self.cur_func_name())),
        };
        let taken = match cond {
            RtVal::I(v) => v != 0,
            RtVal::P(p) => p != 0,
            RtVal::F(f) => f != 0.0,
        };
        Ok(Some(if taken { *then_bb } else { *else_bb } as usize))
    }
}
