//! # rsti-attacks — the security evaluation (paper §6.1, Tables 1 and 2)
//!
//! Re-creates all twelve Table 1 exploits as MiniC victims with the same
//! pointer scope-type relationships as the paper's table, drives them with
//! the VM's attacker API, and derives per-defense verdicts; plus measured
//! Table 2 capability probes. Both tables go through one driver
//! ([`Victim::attack`]), which builds each cell at any opt level.
//!
//! ```
//! use rsti_attacks::{scenarios, harness};
//! use rsti_core::Mechanism;
//!
//! let s = &scenarios::all()[0]; // NEWTON CsCFI
//! // Unprotected, the hijack succeeds...
//! assert_eq!(harness::evaluate(s, None), harness::Verdict::PayloadExecuted);
//! // ...under RSTI-STWC it is detected.
//! assert!(matches!(
//!     harness::evaluate(s, Some(Mechanism::Stwc)),
//!     harness::Verdict::Detected(_)
//! ));
//! ```

#![warn(missing_docs)]

pub mod capability;
pub mod harness;
pub mod scenarios;

pub use capability::{render_table2, table2_label, Probe};
pub use harness::{
    defense_name, evaluate, evaluate_at, render_table1, run_matrix, AttackKind, Category,
    Corruption, MatrixRow, Scenario, Verdict, Victim, DEFENSES,
};

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_core::{Mechanism, OptLevel};
    use rsti_vm::ExecBackend;

    /// Scenarios whose substitution uses the same basic type on both
    /// sides — the ones the PARTS baseline cannot detect (§6.1.2).
    const PARTS_MISSES: &[&str] = &["coop-rec-g", "coop-ml-g", "pittypat-coop", "dop-proftpd"];

    #[test]
    fn every_victim_runs_cleanly_when_not_attacked() {
        for s in scenarios::all() {
            let v = Victim::scenario(&s);
            for d in DEFENSES {
                v.check_benign(d, OptLevel::None, ExecBackend::default())
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", s.id, defense_name(d)));
            }
        }
    }

    #[test]
    fn unprotected_attacks_all_succeed() {
        for s in scenarios::all() {
            let v = evaluate(&s, None);
            assert_eq!(
                v,
                Verdict::PayloadExecuted,
                "{} must succeed with no defense, got {v:?}",
                s.id
            );
        }
    }

    #[test]
    fn rsti_detects_every_table1_attack() {
        for s in scenarios::all() {
            for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
                let v = evaluate(&s, Some(mech));
                assert!(
                    matches!(v, Verdict::Detected(_)),
                    "{} under {}: expected detection, got {v:?}",
                    s.id,
                    mech
                );
            }
        }
    }

    #[test]
    fn parts_misses_same_basic_type_substitutions() {
        for s in scenarios::all() {
            let v = evaluate(&s, Some(Mechanism::Parts));
            if PARTS_MISSES.contains(&s.id) {
                assert_eq!(
                    v,
                    Verdict::PayloadExecuted,
                    "{}: PARTS should miss this same-type substitution, got {v:?}",
                    s.id
                );
            } else {
                assert!(
                    v.stopped(),
                    "{}: PARTS should stop this attack, got {v:?}",
                    s.id
                );
            }
        }
    }

    #[test]
    fn matrix_report_renders() {
        let scenarios = scenarios::all();
        let victims: Vec<Victim> = scenarios[..2].iter().map(Victim::scenario).collect();
        let matrix = run_matrix(&victims);
        let text = render_table1(&scenarios[..2], &matrix);
        assert!(text.contains("newton-cscfi"));
        assert!(text.contains("HIJACKED"));
        assert!(text.contains("detected"));
    }

    #[test]
    fn extra_scenarios_follow_the_same_contract() {
        for s in scenarios::extras() {
            assert_eq!(
                evaluate(&s, None),
                Verdict::PayloadExecuted,
                "{} must succeed unprotected",
                s.id
            );
            for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
                let v = evaluate(&s, Some(mech));
                assert!(
                    matches!(v, Verdict::Detected(_)),
                    "{} under {}: {v:?}",
                    s.id,
                    mech
                );
            }
            let v = Victim::scenario(&s);
            for d in DEFENSES {
                v.check_benign(d, OptLevel::None, ExecBackend::default())
                    .unwrap_or_else(|e| panic!("{} benign under {}: {e}", s.id, defense_name(d)));
            }
        }
        // The same-type substitutions in the extras evade PARTS, like
        // their Table 1 cousins.
        for s in scenarios::extras() {
            let v = evaluate(&s, Some(Mechanism::Parts));
            if ["ghttpd-fig2", "uaf-session-replay"].contains(&s.id) {
                assert_eq!(v, Verdict::PayloadExecuted, "{}: {v:?}", s.id);
            } else {
                assert!(v.stopped(), "{}: {v:?}", s.id);
            }
        }
    }

    #[test]
    fn every_detected_attack_yields_a_forensic_incident() {
        // The tentpole acceptance claim: each Table 1 row that traps
        // produces an incident naming the failing check site and the
        // expected-vs-presented modifier, with sign-site lineage for
        // replayed (legitimately signed) values and none for raw
        // overwrites — bit-identical between the two engines.
        for s in scenarios::all() {
            let v = Victim::scenario(&s);
            for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
                let (vi, ii) = v.attack(Some(mech), OptLevel::None, ExecBackend::Interp, true);
                let (vc, ic) = v.attack(Some(mech), OptLevel::None, ExecBackend::Compiled, true);
                assert_eq!(vi, vc, "{} under {mech}: verdicts diverge", s.id);
                assert_eq!(ii, ic, "{} under {mech}: incidents diverge", s.id);
                assert!(
                    matches!(vi, Verdict::Detected(_)),
                    "{} under {mech}: {vi:?}",
                    s.id
                );
                let inc = ii.unwrap_or_else(|| {
                    panic!("{} under {mech}: detection must synthesize an incident", s.id)
                });
                assert_eq!(inc.mechanism, mech.name(), "{}", s.id);
                assert!(
                    !inc.check_site.is_empty(),
                    "{} under {mech}: failing check site named",
                    s.id
                );
                assert!(
                    inc.window.iter().any(|e| e.kind == "attacker_write"),
                    "{} under {mech}: the corruption itself is on the timeline",
                    s.id
                );
                match s.corruption {
                    Corruption::RawWrite { .. } => {
                        assert!(
                            inc.lineage.is_none(),
                            "{} under {mech}: raw overwrite has no sign lineage",
                            s.id
                        );
                        assert!(
                            inc.verdict().contains("never signed"),
                            "{} under {mech}: {}",
                            s.id,
                            inc.verdict()
                        );
                    }
                    Corruption::Replay { .. } => {
                        let lin = inc.lineage.as_ref().unwrap_or_else(|| {
                            panic!(
                                "{} under {mech}: replayed value must resolve to its sign site",
                                s.id
                            )
                        });
                        assert!(!lin.site.is_empty() || !lin.func.is_empty(), "{}", s.id);
                        assert_ne!(
                            (lin.modifier, lin.key.clone()),
                            (inc.presented_modifier, inc.presented_key.clone()),
                            "{} under {mech}: replay detected ⇒ context differs",
                            s.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scenario_metadata_matches_paper_shape() {
        let all = scenarios::all();
        assert_eq!(all.len(), 12, "Table 1 has 12 rows");
        let cf = all.iter().filter(|s| s.category == Category::ControlFlow).count();
        let dd = all.iter().filter(|s| s.category == Category::DataOriented).count();
        assert_eq!(cf, 10);
        assert_eq!(dd, 2);
        let synthetic = all.iter().filter(|s| s.kind == AttackKind::Synthetic).count();
        assert_eq!(synthetic, 3, "COOP REC-G, ML-G, PittyPat are synthetic");
    }
}
