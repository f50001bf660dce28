//! Equivalence-class analytics — the quantities behind Table 3.
//!
//! * **NT** — number of distinct basic pointer types among a program's
//!   pointer variables;
//! * **RT** — number of RSTI-types a mechanism enforces;
//! * **NV** — total number of pointer variables;
//! * **ECV** — Equivalence Class of Variable: variables sharing one
//!   RSTI-type (the substitution surface an attacker has);
//! * **ECT** — Equivalence Class of Type: basic types sharing one
//!   RSTI-type (always 1 for STWC; >1 possible for STC).

use crate::sti::{analyze, basic_type_count, Mechanism, StiAnalysis};
use rsti_ir::Module;

/// The Table 3 row for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceStats {
    /// Program name.
    pub name: String,
    /// NT: distinct basic pointer types.
    pub nt: usize,
    /// RT under RSTI-STC.
    pub rt_stc: usize,
    /// RT under RSTI-STWC.
    pub rt_stwc: usize,
    /// RT under RSTI-STL (equals NV by construction).
    pub rt_stl: usize,
    /// NV: total pointer variables.
    pub nv: usize,
    /// Largest ECV under STC.
    pub ecv_stc: usize,
    /// Largest ECV under STWC.
    pub ecv_stwc: usize,
    /// Largest ECT under STC.
    pub ect_stc: usize,
    /// Largest ECT under STWC (1 by construction).
    pub ect_stwc: usize,
}

/// Largest member count over classes.
pub fn largest_ecv(a: &StiAnalysis) -> usize {
    a.classes.iter().map(|c| a.members(c).len()).max().unwrap_or(0)
}

/// Largest basic-type count over classes.
pub fn largest_ect(a: &StiAnalysis) -> usize {
    a.classes.iter().map(|c| a.types(c).len()).max().unwrap_or(0)
}

/// Computes the full Table 3 row for a module.
pub fn equivalence_stats(m: &Module) -> EquivalenceStats {
    let stwc = analyze(m, Mechanism::Stwc);
    let stc = analyze(m, Mechanism::Stc);
    let stl = analyze(m, Mechanism::Stl);
    EquivalenceStats {
        name: m.name.clone(),
        nt: basic_type_count(&stwc.facts),
        rt_stc: stc.classes.len(),
        rt_stwc: stwc.classes.len(),
        rt_stl: stl.classes.len(),
        nv: stwc.facts.vars.len(),
        ecv_stc: largest_ecv(&stc),
        ecv_stwc: largest_ecv(&stwc),
        ect_stc: largest_ect(&stc),
        ect_stwc: largest_ect(&stwc),
    }
}

impl EquivalenceStats {
    /// Checks the structural invariants the paper's Table 3 exhibits.
    /// Returns a violation description, or `None` when all hold.
    ///
    /// Two of the paper's equalities — ECT(STWC) = 1 and RT(STL) = NV —
    /// hold *exactly* only on alias-free programs: when a pointer
    /// variable's address escapes (`&p` passed on) or a double pointer
    /// loses its type (§4.7.7), the variable must share a class with its
    /// type-level storage in every mechanism (see `sti::StiFacts::
    /// forced_unions`), which can merge a handful of classes. The checked
    /// invariants are therefore the order relations, plus the equalities
    /// in their relaxed (≤) form.
    pub fn invariant_violation(&self) -> Option<String> {
        if self.nv == 0 {
            // A program with no pointer variables (pure numeric kernels)
            // vacuously satisfies every invariant.
            return None;
        }
        if self.rt_stwc < self.rt_stc {
            return Some(format!(
                "RT(STWC)={} must be >= RT(STC)={}",
                self.rt_stwc, self.rt_stc
            ));
        }
        if self.rt_stl < self.rt_stwc {
            return Some("RT(STL) must be >= RT(STWC)".into());
        }
        if self.rt_stl > self.nv {
            return Some(format!(
                "RT(STL)={} must not exceed NV={}",
                self.rt_stl, self.nv
            ));
        }
        if self.ecv_stc < self.ecv_stwc {
            return Some("largest ECV(STC) must be >= largest ECV(STWC)".into());
        }
        if self.ect_stc < self.ect_stwc {
            return Some("largest ECT(STC) must be >= largest ECT(STWC)".into());
        }
        None
    }

    /// The strict paper equalities (ECT(STWC)=1, RT(STL)=NV); true only
    /// for alias-free programs.
    pub fn strict_equalities_hold(&self) -> bool {
        self.nv == 0 || (self.ect_stwc == 1 && self.rt_stl == self.nv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_frontend::compile;

    #[test]
    fn table3_invariants_hold_on_a_mixed_program() {
        let src = r#"
            struct conn { char* buf; void (*handler)(struct conn* c); int fd; };
            char* g_banner = "x";
            void handle(struct conn* c) { c->fd = c->fd + 1; }
            void dispatch(struct conn* c) {
                void* raw = (void*) c;
                struct conn* back = (struct conn*) raw;
                back->handler = handle;
                back->handler(back);
            }
            int main() {
                struct conn* c = (struct conn*) malloc(sizeof(struct conn));
                c->buf = g_banner;
                dispatch(c);
                const char* note = "n";
                return 0;
            }
        "#;
        let m = compile(src, "mixed").unwrap();
        let s = equivalence_stats(&m);
        assert_eq!(s.invariant_violation(), None, "{s:?}");
        assert!(s.nt >= 3, "at least conn*, char*, void*: {s:?}");
        assert!(s.nv > s.nt, "more variables than types: {s:?}");
        // RSTI refines the type system: more RSTI-types than basic types.
        assert!(s.rt_stwc >= s.nt, "{s:?}");
    }

    #[test]
    fn stl_always_has_singleton_classes() {
        let m = compile(
            "int main() { int* a = null; int* b = null; void* c = null; return 0; }",
            "t",
        )
        .unwrap();
        let s = equivalence_stats(&m);
        assert_eq!(s.rt_stl, s.nv);
        assert_eq!(s.ect_stwc, 1);
    }
}
