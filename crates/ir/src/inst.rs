//! Instructions, operands, and terminators.
//!
//! The instruction set mirrors the LLVM subset the paper's pass operates on:
//! `alloca`, `load`, `store`, `getelementptr` (split into [`Inst::FieldAddr`]
//! and [`Inst::IndexAddr`]), `bitcast`, direct and indirect calls, and
//! arithmetic. On top of those, the RSTI instrumentation pass inserts the
//! PAC pseudo-instructions ([`Inst::PacSign`], [`Inst::PacAuth`],
//! [`Inst::PacStrip`]) and the pointer-to-pointer runtime calls
//! ([`Inst::PpAdd`] and friends, §4.7.7) — the IR-level analogue of
//! `llvm.ptrauth.sign` / `llvm.ptrauth.auth` intrinsics and the compiler-rt
//! `pp_*` library.

use crate::debug::VarId;
use crate::function::{BlockId, ValueId};
use crate::module::{FuncId, GlobalId, StrId};
use crate::types::{FuncSig, StructId, TypeId};

/// An instruction operand: either a virtual register or an immediate.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A value produced by an earlier instruction or a parameter.
    Value(ValueId),
    /// Integer immediate of the given type.
    ConstInt(i64, TypeId),
    /// Float immediate, stored as raw bits so `Operand` can stay `Eq`-able
    /// in tests via `PartialEq` on bits.
    ConstFloat(u64, TypeId),
    /// The null pointer of the given pointer type.
    Null(TypeId),
    /// The address of a function (a code pointer); type is
    /// pointer-to-function.
    FuncAddr(FuncId, TypeId),
    /// The address of a global variable; type is pointer-to-global-type.
    GlobalAddr(GlobalId, TypeId),
    /// The address of an interned string literal (`char*`).
    Str(StrId, TypeId),
}

impl Operand {
    /// Convenience constructor for a float immediate.
    pub fn float(v: f64, ty: TypeId) -> Self {
        Operand::ConstFloat(v.to_bits(), ty)
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Self {
        Operand::Value(v)
    }
}

/// Binary arithmetic/bitwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Comparison operators (signed semantics; result type is `bool`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// The five ARMv8.3 PA key registers. RSTI uses the data keys (`Da`) for
/// data pointers — "key = 2 (for pacda/autda)" in the paper's Figure 5 —
/// and `Ia` for code pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacKey {
    /// Instruction key A (`paciza`/`pacia`).
    Ia,
    /// Instruction key B.
    Ib,
    /// Data key A (`pacda`/`autda`).
    Da,
    /// Data key B.
    Db,
    /// Generic key (`pacga`), unused by RSTI but part of the hardware model.
    Ga,
}

/// Why a PAC instruction was inserted. Purely diagnostic: drives the
/// instrumentation-count statistics behind Figure 9's correlation analysis
/// and the per-mechanism cost breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacSite {
    /// §4.7.1 on-store signing.
    OnStore,
    /// §4.7.2 on-load authentication.
    OnLoad,
    /// §4.6 STWC cast handling: authenticate with the old RSTI-type then
    /// re-sign with the new one.
    CastResign,
    /// §4.6 STL argument passing: location changed, re-sign.
    ArgResign,
    /// §4.6/§7 stripping before an external (uninstrumented library) call.
    ExternalStrip,
    /// Signing a freshly allocated pointer (malloc result, address-of).
    NewPointer,
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Inst {
    /// Reserve stack storage for one value of `ty`; yields a pointer to it.
    /// `var` links the slot to its debug variable (LLVM: `llvm.dbg.declare`).
    Alloca {
        result: ValueId,
        ty: TypeId,
        var: Option<VarId>,
    },
    /// Load a value of type `ty` from `ptr`.
    Load {
        result: ValueId,
        ptr: Operand,
        ty: TypeId,
    },
    /// Store `value` to `ptr`.
    Store { value: Operand, ptr: Operand },
    /// Address of field `field` of the struct pointed to by `base`
    /// (LLVM: struct GEP). Result type is pointer-to-field-type.
    FieldAddr {
        result: ValueId,
        base: Operand,
        struct_id: StructId,
        field: usize,
    },
    /// `base + index * sizeof(elem_ty)` — array indexing and pointer
    /// arithmetic (LLVM: array GEP). Result has the same type as `base`.
    IndexAddr {
        result: ValueId,
        base: Operand,
        index: Operand,
        elem_ty: TypeId,
    },
    /// Reinterpret a pointer as another pointer type (LLVM: `bitcast`).
    /// This is the cast site the mechanisms treat differently (§4.8).
    BitCast {
        result: ValueId,
        value: Operand,
        to: TypeId,
    },
    /// Numeric conversion between integer widths and to/from `double`
    /// (LLVM: `sext`/`trunc`/`sitofp`/`fptosi`). Never involves pointers.
    Convert {
        result: ValueId,
        value: Operand,
        to: TypeId,
    },
    /// Integer/float binary operation.
    Bin {
        result: ValueId,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
        ty: TypeId,
    },
    /// Comparison; yields `bool`.
    Cmp {
        result: ValueId,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Direct call.
    Call {
        result: Option<ValueId>,
        callee: FuncId,
        args: Vec<Operand>,
    },
    /// Indirect call through a function pointer — the control-flow-hijack
    /// target surface.
    CallIndirect {
        result: Option<ValueId>,
        callee: Operand,
        sig: FuncSig,
        args: Vec<Operand>,
    },
    /// Heap allocation (models `malloc`); yields a raw `void*`-compatible
    /// pointer of type `result_ty`.
    Malloc {
        result: ValueId,
        size: Operand,
        result_ty: TypeId,
    },
    /// Heap free (models `free`).
    Free { ptr: Operand },
    /// Print an integer (harness observability; models `printf("%ld")`).
    PrintInt { value: Operand },
    /// Print an interned string (models `puts`).
    PrintStr { s: StrId },

    // ---- RSTI instrumentation (inserted by the rsti-core pass) ----
    /// Sign `value` with `key` and modifier `modifier`; when `loc` is set
    /// (RSTI-STL), the runtime mixes the location address into the modifier
    /// (`M = M ^ &p`, paper Figure 5c).
    PacSign {
        result: ValueId,
        value: Operand,
        key: PacKey,
        modifier: u64,
        loc: Option<Operand>,
        site: PacSite,
    },
    /// Authenticate `value`; traps the VM on mismatch. Same modifier rules
    /// as [`Inst::PacSign`].
    PacAuth {
        result: ValueId,
        value: Operand,
        key: PacKey,
        modifier: u64,
        loc: Option<Operand>,
        site: PacSite,
    },
    /// Remove the PAC without authenticating (`xpacd`), used before passing
    /// pointers to uninstrumented external code.
    PacStrip { result: ValueId, value: Operand },

    // ---- pointer-to-pointer runtime library (§4.7.7, Figure 7) ----
    /// `pp_add`: register the Compact Equivalent → Full Equivalent mapping
    /// (CE tag → original RSTI-type modifier) in the read-only metadata
    /// store.
    PpAdd { ce: u8, fe_modifier: u64 },
    /// `pp_sign`: sign a double pointer with the FE modifier registered for
    /// `ce`.
    PpSign {
        result: ValueId,
        value: Operand,
        ce: u8,
        key: PacKey,
    },
    /// `pp_add_tbi`: place the CE tag in the Top-Byte-Ignore byte.
    PpAddTbi {
        result: ValueId,
        value: Operand,
        ce: u8,
    },
    /// `pp_auth`: read the CE from the TBI byte, look up the FE modifier,
    /// authenticate, and clear the tag.
    PpAuth {
        result: ValueId,
        value: Operand,
        key: PacKey,
    },
}

// One match per accessor, shared by the `&` and `&mut` flavours: the
// bindings take the reference mode of the scrutinee.
macro_rules! result_of {
    ($inst:expr) => {
        match $inst {
            Inst::Alloca { result, .. }
            | Inst::Load { result, .. }
            | Inst::FieldAddr { result, .. }
            | Inst::IndexAddr { result, .. }
            | Inst::BitCast { result, .. }
            | Inst::Convert { result, .. }
            | Inst::Bin { result, .. }
            | Inst::Cmp { result, .. }
            | Inst::Malloc { result, .. }
            | Inst::PacSign { result, .. }
            | Inst::PacAuth { result, .. }
            | Inst::PacStrip { result, .. }
            | Inst::PpSign { result, .. }
            | Inst::PpAddTbi { result, .. }
            | Inst::PpAuth { result, .. } => Some(result),
            Inst::Call { result, .. } | Inst::CallIndirect { result, .. } => Option::from(result),
            Inst::Store { .. }
            | Inst::Free { .. }
            | Inst::PrintInt { .. }
            | Inst::PrintStr { .. }
            | Inst::PpAdd { .. } => None,
        }
    };
}

/// Calls `$f` on each operand of `$inst` in order, `loc` included; the
/// bindings take the reference mode of the scrutinee.
macro_rules! each_operand {
    ($inst:expr, $f:expr) => {{
        let mut f = $f;
        match $inst {
            Inst::Alloca { .. } | Inst::PrintStr { .. } | Inst::PpAdd { .. } => {}
            Inst::Load { ptr, .. } => f(ptr),
            Inst::Store { value, ptr } => {
                f(value);
                f(ptr);
            }
            Inst::FieldAddr { base, .. } => f(base),
            Inst::IndexAddr { base, index, .. } => {
                f(base);
                f(index);
            }
            Inst::BitCast { value, .. } | Inst::Convert { value, .. } => f(value),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Call { args, .. } => args.into_iter().for_each(f),
            Inst::CallIndirect { callee, args, .. } => {
                f(callee);
                args.into_iter().for_each(f);
            }
            Inst::Malloc { size, .. } => f(size),
            Inst::Free { ptr } => f(ptr),
            Inst::PrintInt { value } => f(value),
            Inst::PacSign { value, loc, .. } | Inst::PacAuth { value, loc, .. } => {
                f(value);
                loc.into_iter().for_each(f);
            }
            Inst::PacStrip { value, .. }
            | Inst::PpSign { value, .. }
            | Inst::PpAddTbi { value, .. }
            | Inst::PpAuth { value, .. } => f(value),
        }
    }};
}

impl Inst {
    /// The value this instruction defines, if any.
    pub fn result(&self) -> Option<ValueId> {
        result_of!(self).copied()
    }

    /// Mutable access to the defined value, for renumbering passes.
    pub fn result_mut(&mut self) -> Option<&mut ValueId> {
        result_of!(self)
    }

    /// Whether this is one of the PA instructions (for cost accounting —
    /// the paper charges each `pac`/`aut` the cost of ~7 XOR ops).
    pub fn is_pac_op(&self) -> bool {
        matches!(
            self,
            Inst::PacSign { .. }
                | Inst::PacAuth { .. }
                | Inst::PacStrip { .. }
                | Inst::PpSign { .. }
                | Inst::PpAuth { .. }
        )
    }

    /// Operands read by this instruction, `loc` included.
    pub fn operands(&self) -> Vec<&Operand> {
        let mut v = Vec::new();
        each_operand!(self, |op| v.push(op));
        v
    }

    /// Mutable access to the same operands as [`Inst::operands`], in the
    /// same order, for renumbering and splicing passes.
    pub fn operands_mut(&mut self) -> Vec<&mut Operand> {
        let mut v = Vec::new();
        each_operand!(self, |op| v.push(op));
        v
    }

    /// Calls `f` on the same operands as [`Inst::operands`], in the same
    /// order, without collecting them.
    pub fn for_each_operand(&self, f: impl FnMut(&Operand)) {
        each_operand!(self, f)
    }
}

/// Block terminators, kept separate from [`Inst`] so that every block has
/// exactly one by construction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on a `bool` operand.
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return.
    Ret(Option<Operand>),
    /// Control never reaches here (e.g. after a guaranteed trap).
    Unreachable,
}

impl Terminator {
    /// The value operand this terminator reads: a `CondBr` condition or a
    /// `Ret` value.
    pub fn operand(&self) -> Option<&Operand> {
        match self {
            Terminator::CondBr { cond, .. } | Terminator::Ret(Some(cond)) => Some(cond),
            Terminator::Br(_) | Terminator::Ret(None) | Terminator::Unreachable => None,
        }
    }

    /// Mutable access to [`Terminator::operand`].
    pub fn operand_mut(&mut self) -> Option<&mut Operand> {
        match self {
            Terminator::CondBr { cond, .. } | Terminator::Ret(Some(cond)) => Some(cond),
            Terminator::Br(_) | Terminator::Ret(None) | Terminator::Unreachable => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_extraction() {
        let i = Inst::Store {
            value: Operand::ConstInt(1, TypeId(4)),
            ptr: Operand::Value(ValueId(0)),
        };
        assert_eq!(i.result(), None);
        let j = Inst::Alloca { result: ValueId(3), ty: TypeId(4), var: None };
        assert_eq!(j.result(), Some(ValueId(3)));
    }

    #[test]
    fn pac_ops_flagged() {
        let s = Inst::PacSign {
            result: ValueId(1),
            value: Operand::Value(ValueId(0)),
            key: PacKey::Da,
            modifier: 42,
            loc: None,
            site: PacSite::OnStore,
        };
        assert!(s.is_pac_op());
        assert_eq!(s.operands().len(), 1);
        let l = Inst::Load {
            result: ValueId(1),
            ptr: Operand::Value(ValueId(0)),
            ty: TypeId(4),
        };
        assert!(!l.is_pac_op());
    }

    #[test]
    fn float_operand_roundtrip() {
        let o = Operand::float(1.5, TypeId(6));
        match o {
            Operand::ConstFloat(bits, _) => assert_eq!(f64::from_bits(bits), 1.5),
            _ => unreachable!(),
        }
    }
}
