//! Replay-surface analysis and adaptive hardening — the paper's §7
//! discussion ("Possibility of replay attacks") made executable.
//!
//! STC and STWC leave a residual attack surface: pointers sharing one
//! RSTI-type can be substituted for each other ("an attacker wanting to
//! abuse perlbench under RSTI-STWC would have to choose gadgets that are
//! confined to the 82 equivalent variables"). This module quantifies that
//! surface — the number of substitutable ordered pairs per class — and
//! implements the paper's proposed mitigation: *choose the mechanism per
//! RSTI-type*, applying STL's location binding only to classes whose
//! equivalence class exceeds a threshold ("STL can be used \[for
//! xalancbmk's 122-variable class\]; RSTI-STWC can be used when the
//! number of variables with the same RSTI-type is smaller, such as mcf").

use crate::sti::{Mechanism, StiAnalysis};

/// The measured replay surface of an analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySurface {
    /// Mechanism the analysis was built for.
    pub mechanism: Mechanism,
    /// Number of RSTI-types.
    pub classes: usize,
    /// Members of the largest class (the paper's "equivalent variables").
    pub largest_class: usize,
    /// Total substitutable unordered pairs: Σ over classes of n·(n−1)/2.
    /// Zero means no in-class substitution is possible at all (STL).
    pub substitutable_pairs: usize,
    /// Classes whose size exceeds the recommendation threshold.
    pub hot_classes: usize,
}

/// Default class-size threshold above which location binding is
/// recommended. With ≤ 4 equivalent variables an attacker has at most 6
/// substitution pairs per class — the paper's mcf-like "smaller" regime.
pub const DEFAULT_ECV_THRESHOLD: usize = 4;

/// Computes the replay surface of an analysis.
pub fn replay_surface(a: &StiAnalysis, threshold: usize) -> ReplaySurface {
    let mut pairs = 0usize;
    let mut largest = 0usize;
    let mut hot = 0usize;
    for c in &a.classes {
        let n = a.members(c).len();
        largest = largest.max(n);
        pairs += n * (n - 1) / 2;
        if n > threshold {
            hot += 1;
        }
    }
    ReplaySurface {
        mechanism: a.mechanism,
        classes: a.classes.len(),
        largest_class: largest,
        substitutable_pairs: pairs,
        hot_classes: hot,
    }
}

/// The paper's per-program mechanism recommendation: STL when a large
/// equivalence class exists, STWC otherwise.
pub fn recommend(a: &StiAnalysis, threshold: usize) -> Mechanism {
    if replay_surface(a, threshold).hot_classes > 0 {
        Mechanism::Stl
    } else {
        Mechanism::Stwc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sti::analyze;
    use rsti_frontend::compile;

    /// Many same-fact pointers in one scope → one big class → STL
    /// recommended. Few → STWC suffices.
    #[test]
    fn recommendation_follows_class_size() {
        let big = compile(
            r#"
            struct s { long v; };
            struct s* a; struct s* b; struct s* c; struct s* d;
            struct s* e; struct s* f;
            void touch() {
                a = (struct s*) malloc(8); b = a; c = a; d = a; e = a; f = a;
            }
            int main() { touch(); return 0; }
        "#,
            "big",
        )
        .unwrap();
        let a = analyze(&big, Mechanism::Stwc);
        let s = replay_surface(&a, DEFAULT_ECV_THRESHOLD);
        assert!(s.largest_class > DEFAULT_ECV_THRESHOLD, "{s:?}");
        assert_eq!(recommend(&a, DEFAULT_ECV_THRESHOLD), Mechanism::Stl);

        let small = compile(
            r#"
            int* narrow;
            void take() { narrow = (int*) malloc(4); }
            int main() { take(); return 0; }
        "#,
            "small",
        )
        .unwrap();
        let a = analyze(&small, Mechanism::Stwc);
        assert_eq!(recommend(&a, DEFAULT_ECV_THRESHOLD), Mechanism::Stwc);
    }

    #[test]
    fn stl_has_zero_substitutable_pairs_absent_aliasing() {
        let m = compile(
            "int main() { int* p = null; int* q = null; void* r = null; return 0; }",
            "t",
        )
        .unwrap();
        let a = analyze(&m, Mechanism::Stl);
        let s = replay_surface(&a, DEFAULT_ECV_THRESHOLD);
        assert_eq!(s.substitutable_pairs, 0, "{s:?}");
        // And STWC on the same program has some (p/q share facts).
        let a = analyze(&m, Mechanism::Stwc);
        assert!(replay_surface(&a, DEFAULT_ECV_THRESHOLD).substitutable_pairs > 0);
    }

    #[test]
    fn surface_ordering() {
        let m = compile(
            r#"
            struct a { long x; };
            struct a* p1; struct a* p2;
            void* q1; void* q2;
            void wire() {
                p1 = (struct a*) malloc(8);
                p2 = p1;
                q1 = (void*) p1;
                q2 = q1;
            }
            int main() { wire(); return 0; }
        "#,
            "t",
        )
        .unwrap();
        let surf = |mech| {
            replay_surface(&analyze(&m, mech), DEFAULT_ECV_THRESHOLD).substitutable_pairs
        };
        let (stl, stwc, stc, parts) = (
            surf(Mechanism::Stl),
            surf(Mechanism::Stwc),
            surf(Mechanism::Stc),
            surf(Mechanism::Parts),
        );
        assert!(stl <= stwc, "stl={stl} stwc={stwc}");
        assert!(stwc <= stc, "stwc={stwc} stc={stc}");
        // PARTS ignores scope/permission, so it is never finer than STWC;
        // STC and PARTS are *incomparable*: combining across casts can make
        // STC's classes larger than PARTS' per-type ones — the very caveat
        // the paper raises ("the size of the RSTI-type may be large due to
        // combining", Table 2).
        assert!(stwc <= parts, "stwc={stwc} parts={parts}");
        assert!(stc >= stwc && parts >= stwc, "stc={stc} parts={parts}");
    }
}
