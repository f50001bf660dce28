//! The cycle-accounting model behind the performance evaluation.
//!
//! The paper measures wall-clock overhead on an Apple M1; off that testbed
//! we charge each executed IR operation a deterministic cycle cost and
//! report the instrumented/baseline cycle ratio. The PA cost follows the
//! paper's own emulation recipe: "we used seven XOR (`eor`) instructions as
//! an equivalent to one PA instruction on the Mac Mini M1" (§6.3.1) — with
//! ALU ops costing 1 cycle, a PA operation costs [`CostModel::pac_op`] = 7.

use rsti_core::Mechanism;
use rsti_ir::Inst;

/// Per-operation cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Plain ALU / move / cast operations.
    pub alu: u64,
    /// Memory loads and stores.
    pub mem: u64,
    /// Direct call / return bookkeeping.
    pub call: u64,
    /// Indirect call extra cost.
    pub icall: u64,
    /// Heap allocation.
    pub malloc: u64,
    /// One PA operation (`pac`/`aut`/`xpac`) — 7 XOR-equivalents.
    pub pac_op: u64,
    /// `pp_add` (metadata insertion, inlined compiler-rt call).
    pub pp_add: u64,
    /// `pp_sign`/`pp_auth` (PA op + metadata lookup).
    pub pp_pac: u64,
    /// Branch/terminator.
    pub branch: u64,
}

impl CostModel {
    /// The cost model of images built for `mechanism` (`None` for the
    /// uninstrumented baseline).
    ///
    /// The PARTS baseline pays a higher per-PA-op cost: the paper
    /// attributes PARTS' much larger overhead (19.5% vs RSTI's 1.54% on
    /// nbench) to engineering, not extra checks — "using LLVM ptrauth
    /// intrinsics, running the pass in the backend, using LTO and -O2
    /// optimizations allowed our compiler to produce more optimized code"
    /// (§6.3.2). We model PARTS' non-inlined runtime calls and spills as
    /// `pac_op = 22` cycles (PA op + call + two memory accesses) instead
    /// of RSTI's inlined 7, and `pp_pac = 24`.
    pub const fn for_mechanism(mechanism: Option<Mechanism>) -> Self {
        let parts = matches!(mechanism, Some(Mechanism::Parts));
        CostModel {
            alu: 1,
            mem: 3,
            call: 4,
            icall: 6,
            malloc: 30,
            pac_op: if parts { 22 } else { 7 },
            pp_add: 6,
            pp_pac: if parts { 24 } else { 9 },
            branch: 1,
        }
    }

    /// Cycle cost of one instruction.
    pub fn cost(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Alloca { .. } => self.alu,
            Inst::Load { .. } | Inst::Store { .. } => self.mem,
            Inst::FieldAddr { .. }
            | Inst::IndexAddr { .. }
            | Inst::BitCast { .. }
            | Inst::Convert { .. }
            | Inst::Bin { .. }
            | Inst::Cmp { .. } => self.alu,
            Inst::Call { .. } => self.call,
            Inst::CallIndirect { .. } => self.icall,
            Inst::Malloc { .. } | Inst::Free { .. } => self.malloc,
            Inst::PrintInt { .. } | Inst::PrintStr { .. } => self.call,
            // A location-mixed PAC op (STL's `M ^ &p`) pays one extra ALU
            // op for the address `eor`; the optimizer's precomputed-
            // modifier pass folds static locations away, dropping a site
            // back to the plain `pac_op` cost.
            Inst::PacSign { loc: Some(_), .. } | Inst::PacAuth { loc: Some(_), .. } => {
                self.pac_op + self.alu
            }
            Inst::PacSign { .. } | Inst::PacAuth { .. } | Inst::PacStrip { .. } => self.pac_op,
            Inst::PpAdd { .. } => self.pp_add,
            Inst::PpSign { .. } | Inst::PpAuth { .. } => self.pp_pac,
            Inst::PpAddTbi { .. } => self.alu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_ir::{Operand, PacKey, PacSite, TypeId, ValueId};

    #[test]
    fn pac_ops_cost_seven_alu() {
        let c = CostModel::for_mechanism(None);
        let sign = Inst::PacSign {
            result: ValueId(0),
            value: Operand::Null(TypeId(0)),
            key: PacKey::Da,
            modifier: 0,
            loc: None,
            site: PacSite::OnStore,
        };
        assert_eq!(c.cost(&sign), 7 * c.alu);
    }

    #[test]
    fn only_parts_pays_more_per_pa_op() {
        let base = CostModel::for_mechanism(None);
        for m in Mechanism::ALL {
            let c = CostModel::for_mechanism(Some(m));
            let want = if m == Mechanism::Parts { (22, 24) } else { (base.pac_op, base.pp_pac) };
            assert_eq!((c.pac_op, c.pp_pac), want, "{m}");
        }
    }

    /// Attribution's shortest sampling period is at least every single
    /// charge, so no charge crosses two sampling boundaries.
    #[test]
    fn no_charge_exceeds_the_shortest_sampling_period() {
        for m in std::iter::once(None).chain(Mechanism::ALL.map(Some)) {
            let c = CostModel::for_mechanism(m);
            let charges =
                [c.alu, c.mem, c.call, c.icall, c.malloc, c.pac_op + c.alu, c.pp_add, c.pp_pac, c.branch];
            assert!(charges.iter().all(|&x| x <= crate::MIN_ATTR_SAMPLE_EVERY), "{m:?}");
        }
    }

    #[test]
    fn location_mix_costs_an_extra_alu() {
        let c = CostModel::for_mechanism(None);
        let mixed = Inst::PacAuth {
            result: ValueId(0),
            value: Operand::Null(TypeId(0)),
            key: PacKey::Da,
            modifier: 0,
            loc: Some(Operand::Null(TypeId(0))),
            site: PacSite::OnLoad,
        };
        assert_eq!(c.cost(&mixed), c.pac_op + c.alu);
    }

    #[test]
    fn memory_ops_cost_more_than_alu() {
        let c = CostModel::for_mechanism(None);
        let load = Inst::Load {
            result: ValueId(0),
            ptr: Operand::Null(TypeId(0)),
            ty: TypeId(4),
        };
        let add = Inst::Bin {
            result: ValueId(0),
            op: rsti_ir::BinOp::Add,
            lhs: Operand::ConstInt(1, TypeId(4)),
            rhs: Operand::ConstInt(2, TypeId(4)),
            ty: TypeId(4),
        };
        assert!(c.cost(&load) > c.cost(&add));
    }
}
