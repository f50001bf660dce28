//! Pointer-to-pointer handling (§4.7.7, Figure 7).
//!
//! When a double pointer is cast and passed as a function argument, the
//! original type is lost to the callee — `foo2(void** pp2)` cannot know the
//! argument was really a `struct node**`. RSTI preserves the original type
//! by assigning it a **Compact Equivalent** (CE): an 8-bit tag placed in
//! the pointer's Top-Byte-Ignore byte that maps, through a read-only
//! metadata store, to the **Full Equivalent** (FE) — the original
//! RSTI-type's modifier.
//!
//! This module finds the sites that need the mechanism (a *rare* case — the
//! paper counts 25 out of 7,489 double-pointer sites in SPEC 2006, §6.2.2)
//! and assigns CEs. The instrumentation pass then wraps those arguments in
//! `pp_add` / `pp_sign` / `pp_add_tbi`, and the loads of the receiving
//! parameters in `pp_auth`.

use crate::sti::{fnv1a_from, StiAnalysis};
use crate::storage::{operand_type, root_of_value, DefMap};
use rsti_ir::{FuncId, Inst, Module, Type, TypeId, VarId};
use std::collections::HashMap;

/// The double-pointer census for a module (reproduces §6.2.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PpCensus {
    /// All sites where a pointer-to-pointer value is passed as an argument
    /// or loaded from memory.
    pub total_sites: usize,
    /// The subset where the original type is lost (cast + passed as an
    /// argument) and the CE/FE mechanism is required.
    pub lost_type_sites: usize,
}

/// A site needing CE/FE instrumentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpSite {
    /// Function containing the call.
    pub func: FuncId,
    /// Argument index within the call.
    pub arg_index: usize,
    /// The original (pre-cast) double-pointer type — the Full Equivalent.
    pub original_ty: TypeId,
    /// The assigned Compact Equivalent tag (1..=255; 0 means untagged).
    pub ce: u8,
    /// Modifier of the original type's RSTI class (the FE payload).
    pub fe_modifier: u64,
    /// The callee parameter receiving the tagged pointer.
    pub callee_param: Option<VarId>,
}

/// The CE/FE assignment for a module under one mechanism's analysis.
#[derive(Debug, Clone, Default)]
pub struct PpPlan {
    /// Sites needing instrumentation.
    pub sites: Vec<PpSite>,
    /// CE tag → FE modifier (the table `pp_add` populates).
    pub ce_table: HashMap<u8, u64>,
    /// Callee parameters that receive tagged double pointers; their loads
    /// must use `pp_auth`.
    pub tagged_params: Vec<VarId>,
    /// The census counts.
    pub census: PpCensus,
}

/// Scans the module for double-pointer sites and assigns CEs for the
/// lost-type subset.
///
/// A site *loses* the original type when the pre-cast static type of the
/// argument is a depth ≥ 2 pointer and the callee's parameter type differs
/// (e.g. `struct node**` passed as `void**` / `void*`). Only those sites
/// need the CE/FE indirection; everything else is statically resolvable
/// from the IR (§4.7.7 "Usage").
pub fn plan_pp(m: &Module, analysis: &StiAnalysis) -> PpPlan {
    let mut plan = PpPlan::default();
    let mut next_ce: u8 = 1;
    let mut ce_of_ty: HashMap<TypeId, u8> = HashMap::new();

    for (fid, f) in m.funcs() {
        if f.is_external {
            continue;
        }
        let defs = DefMap::new(f);
        for node in f.insts() {
            match &node.inst {
                Inst::Load { ty, .. } if m.types.ptr_depth(*ty) >= 2 => {
                    plan.census.total_sites += 1;
                }
                Inst::Call { callee, args, .. } => {
                    let callee_f = m.func(*callee);
                    for (i, a) in args.iter().enumerate() {
                        let aty = operand_type(m, f, a);
                        let root = root_of_value(m, f, &defs, a);
                        let orig_ty = root.root_ty.unwrap_or(aty);
                        if m.types.ptr_depth(aty).max(m.types.ptr_depth(orig_ty)) < 2 {
                            continue;
                        }
                        plan.census.total_sites += 1;
                        // Lost type: cast on the path AND the static types
                        // disagree AND the original was a double pointer.
                        let lost =
                            root.casted && orig_ty != aty && m.types.ptr_depth(orig_ty) >= 2;
                        if !lost || callee_f.is_external {
                            continue;
                        }
                        plan.census.lost_type_sites += 1;
                        let ce = *ce_of_ty.entry(orig_ty).or_insert_with(|| {
                            let ce = next_ce;
                            // 8 bits: at most 255 distinct lost types
                            // (§4.7.7 "only 256 types can be used").
                            next_ce = next_ce.saturating_add(1);
                            ce
                        });
                        // FE = the modifier of the anonymous storage class
                        // of the original pointee type (what the pointer
                        // will be authenticated against on use).
                        let fe_modifier = fe_modifier_for(m, analysis, orig_ty);
                        plan.ce_table.insert(ce, fe_modifier);
                        let callee_param =
                            callee_f.params.get(i).and_then(|(_, v)| *v);
                        if let Some(v) = callee_param {
                            if !plan.tagged_params.contains(&v) {
                                plan.tagged_params.push(v);
                            }
                        }
                        plan.sites.push(PpSite {
                            func: fid,
                            arg_index: i,
                            original_ty: orig_ty,
                            ce,
                            fe_modifier,
                            callee_param,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    plan
}

/// The Full-Equivalent modifier for an original double-pointer type: a
/// stable hash of the type spelling, shared between the signing caller and
/// the authenticating callee. (The paper stores the internal LLVM type id;
/// ours is the type display hash, equally opaque to an attacker who cannot
/// read the metadata store.)
pub fn fe_modifier_for(m: &Module, analysis: &StiAnalysis, orig_ty: TypeId) -> u64 {
    fnv1a_from(0x9E3779B97F4A7C15, m.types.display(orig_ty).as_bytes()) ^ analysis.mechanism as u64
}

/// Whether a type is a "universal" double pointer (`void**`, `char**`) —
/// a parameter of this type that receives tagged arguments authenticates
/// through `pp_auth`.
pub fn is_universal_double_ptr(m: &Module, ty: TypeId) -> bool {
    let inner = m.types.pointee(ty).and_then(|p| m.types.pointee(p));
    inner.is_some_and(|q| matches!(m.types.get(q), Type::Void | Type::I8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sti::{analyze, Mechanism};
    use rsti_frontend::compile;

    /// Figure 7 of the paper: `foo1` keeps the type, `foo2` loses it.
    const FIG7: &str = r#"
        struct node { int key; struct node* next; };
        void foo1(struct node** pp1) { }
        void foo2(void** pp2) { }
        int main() {
            struct node* p = (struct node*) malloc(sizeof(struct node));
            foo1(&p);
            foo2((void**) &p);
            return 0;
        }
    "#;

    #[test]
    fn fig7_only_the_lost_type_site_gets_a_ce() {
        let m = compile(FIG7, "fig7").unwrap();
        let a = analyze(&m, Mechanism::Stwc);
        let plan = plan_pp(&m, &a);
        assert_eq!(plan.census.lost_type_sites, 1, "{plan:?}");
        assert!(plan.census.total_sites >= 2, "both calls pass double pointers");
        let site = &plan.sites[0];
        assert_eq!(m.types.display(site.original_ty), "struct node**");
        assert_eq!(site.ce, 1);
        assert_eq!(plan.ce_table[&1], site.fe_modifier);
        // The callee's pp2 parameter must authenticate via pp_auth.
        assert_eq!(plan.tagged_params.len(), 1);
    }

    #[test]
    fn same_original_type_shares_a_ce() {
        let src = r#"
            struct node { int key; };
            void sink(void** pp) { }
            int main() {
                struct node* a = null;
                struct node* b = null;
                sink((void**) &a);
                sink((void**) &b);
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let a = analyze(&m, Mechanism::Stwc);
        let plan = plan_pp(&m, &a);
        assert_eq!(plan.census.lost_type_sites, 2);
        assert_eq!(plan.sites[0].ce, plan.sites[1].ce, "one CE per original type");
        assert_eq!(plan.ce_table.len(), 1);
    }

    #[test]
    fn plain_double_pointer_passing_needs_no_ce() {
        let src = r#"
            void ok(int** pp) { **pp = 1; }
            int main() {
                int x = 0;
                int* p = &x;
                ok(&p);
                return x;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let a = analyze(&m, Mechanism::Stwc);
        let plan = plan_pp(&m, &a);
        assert_eq!(plan.census.lost_type_sites, 0);
        assert!(plan.census.total_sites >= 1);
    }

    #[test]
    fn universal_double_ptr_detection() {
        let mut m = rsti_ir::Module::new("t");
        let vp = m.types.void_ptr();
        let vpp = m.types.ptr(vp);
        assert!(is_universal_double_ptr(&m, vpp));
        let i32t = m.types.i32();
        let ip = m.types.ptr(i32t);
        let ipp = m.types.ptr(ip);
        assert!(!is_universal_double_ptr(&m, ipp));
        assert!(!is_universal_double_ptr(&m, vp));
    }
}
