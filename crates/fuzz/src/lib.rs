//! # rsti-fuzz — differential fuzzing and delta-debugging triage
//!
//! The reproduction's central claim is *differential*: for any well-defined
//! MiniC program, the instrumented pipeline (any mechanism, optimized or
//! not) behaves exactly like the uninstrumented baseline. This crate turns
//! that claim into a fuzz campaign:
//!
//! * [`rsti_workloads::generate_items`] produces seeded, grammar-directed
//!   ASTs that exercise the constructs RSTI cares about — function-pointer
//!   tables, nested structs, double pointers, casts and type punning,
//!   address-escaping locals, heap churn;
//! * [`oracle`] pushes each program through three checks per cell that
//!   `rsti_vm::Image::build` makes (every mechanism choice, adaptive
//!   included, at every opt level): differential output vs. the baseline,
//!   IR verification of the built module, and no-panic-anywhere;
//! * [`minimize`](minimize::minimize) shrinks a failing AST while preserving
//!   its failure class, leaning on the printer's round-trip guarantee
//!   (`parse(print(ast)) == ast`) so every candidate is a valid program;
//! * [`corpus`] persists minimal repros as permanent regression tests under
//!   `tests/corpus/`.
//!
//! The campaign is fully deterministic: seed `n` always produces the same
//! program, the same verdict, and the same minimized repro.

#![warn(missing_docs)]

pub mod corpus;
pub mod minimize;
pub mod oracle;

pub use minimize::MinimizeReport;
pub use oracle::FailureKind;

use rsti_frontend::print_items;
use rsti_telemetry::{CounterId, Phase};
use rsti_workloads::AstGenConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// First seed (inclusive).
    pub start: u64,
    /// Number of seeds to run.
    pub seeds: u64,
    /// Generator shape parameters.
    pub gen: AstGenConfig,
    /// Run the delta-debugging reducer on each failure.
    pub minimize: bool,
    /// Oracle-run budget per minimization.
    pub budget: u32,
    /// Run every oracle VM with the attribution profiler (`rsti fuzz
    /// --attr`). The verdicts must not change, and both accounting modes
    /// must produce identical profiles, since [`rsti_vm::ExecResult`]
    /// equality covers `attr`.
    pub attr: bool,
    /// Arm the flight recorder on every oracle VM (`rsti fuzz --record`).
    /// Any run that traps on an RSTI detection then synthesizes an
    /// incident in both accounting modes, and the accounting oracle's
    /// `ExecResult` equality covers it bit for bit.
    pub record: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            start: 0,
            seeds: 100,
            gen: AstGenConfig::default(),
            minimize: false,
            budget: 2000,
            attr: false,
            record: false,
        }
    }
}

/// One failing seed, with enough context to file a bug: the original
/// program, the failure, and (when minimization ran) the shrunken repro.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The seed that produced the program.
    pub seed: u64,
    /// What went wrong.
    pub kind: FailureKind,
    /// The generated program, printed.
    pub source: String,
    /// The minimized program, when `--minimize` was on.
    pub minimized: Option<String>,
    /// Oracle runs the reducer spent.
    pub attempts: u32,
}

/// Result of [`run_campaign`].
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Seeds executed.
    pub seeds_run: u64,
    /// Oracle violations, in seed order.
    pub failures: Vec<SeedFailure>,
}

impl CampaignReport {
    /// No oracle was violated.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `f` with the default panic hook replaced by a no-op, restoring it
/// afterwards. The oracles run every stage under `catch_unwind` and turn
/// panics into classified failures; without this, each caught panic would
/// still splat a backtrace banner onto stderr mid-campaign.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    match r {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

/// Runs a deterministic fuzz campaign over `cfg.start .. cfg.start + cfg.seeds`.
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    let tel = rsti_telemetry::global();
    with_quiet_panics(|| {
        let mut failures = Vec::new();
        for seed in cfg.start..cfg.start.saturating_add(cfg.seeds) {
            tel.add(CounterId::FuzzSeedsRun, 1);
            let items = {
                let _span = tel.span(Phase::FuzzGen);
                match catch_unwind(AssertUnwindSafe(|| {
                    rsti_workloads::generate_items(seed, cfg.gen)
                })) {
                    Ok(items) => items,
                    Err(p) => {
                        tel.add(CounterId::FuzzFailures, 1);
                        failures.push(SeedFailure {
                            seed,
                            kind: FailureKind::FrontendPanic {
                                detail: format!("generator: {}", oracle::panic_msg(p)),
                            },
                            source: String::new(),
                            minimized: None,
                            attempts: 0,
                        });
                        continue;
                    }
                }
            };
            if let Err(kind) = oracle::check_items(&items, cfg) {
                tel.add(CounterId::FuzzFailures, 1);
                let source = print_items(&items);
                let (minimized, attempts) = if cfg.minimize {
                    let _span = tel.span(Phase::FuzzMinimize);
                    let rep = minimize::minimize(&items, &kind.class_key(), cfg);
                    (Some(print_items(&rep.items)), rep.attempts)
                } else {
                    (None, 0)
                };
                failures.push(SeedFailure { seed, kind, source, minimized, attempts });
            }
        }
        CampaignReport { seeds_run: cfg.seeds, failures }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimize::{count_stmts, minimize};
    use crate::oracle::check_items;

    fn small() -> AstGenConfig {
        AstGenConfig {
            structs: 2,
            hooks: 2,
            funcs: 3,
            stmts_per_func: 4,
            max_expr_depth: 2,
            objects: 3,
            iters: 3,
        }
    }

    #[test]
    fn campaign_is_clean_on_the_current_tree() {
        let report = run_campaign(&FuzzConfig {
            start: 0,
            seeds: 6,
            gen: small(),
            minimize: true,
            budget: 200,
            ..Default::default()
        });
        assert_eq!(report.seeds_run, 6);
        assert!(
            report.clean(),
            "oracle violations: {:?}",
            report.failures.iter().map(|f| (f.seed, f.kind.clone())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = FuzzConfig { start: 7, seeds: 2, gen: small(), budget: 0, ..Default::default() };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.seeds_run, b.seeds_run);
    }

    /// A deliberate field-class type confusion: the store signs through
    /// `struct a.q`, the load authenticates through `struct b.r`. The
    /// baseline is oblivious (same bytes), so STWC's trap is a *legitimate*
    /// status divergence — which makes it a perfect fixture for the reducer.
    const CONFUSED: &str = r#"
struct a { long* q; };
struct b { long* r; };
long x;
int main() {
    struct a* pa = (struct a*) malloc(sizeof(struct a));
    long side = 0;
    side = side + 1;
    if (side > 0) {
        pa->q = &x;
    }
    struct b* pb = (struct b*) ((void*) pa);
    long* stolen = pb->r;
    *stolen = side;
    print_int(x);
    return 0;
}
"#;

    #[test]
    fn reducer_shrinks_a_divergence_and_preserves_its_class() {
        with_quiet_panics(|| {
            let items = rsti_frontend::parse(CONFUSED).expect("fixture parses");
            let cfg = FuzzConfig { budget: 400, ..Default::default() };
            let kind = check_items(&items, &cfg).expect_err("fixture must diverge");
            let key = kind.class_key();
            assert!(
                key.starts_with("status_divergence:"),
                "expected a status divergence, got {key}"
            );

            let rep = minimize(&items, &key, &cfg);
            assert!(rep.attempts > 0);
            assert!(
                rep.stmts_after < rep.stmts_before,
                "reducer made no progress ({} stmts)",
                rep.stmts_before
            );
            // The reducer invariant: the minimized program still fails with
            // the exact same class.
            let kind2 = check_items(&rep.items, &cfg).expect_err("minimized repro must still fail");
            assert_eq!(kind2.class_key(), key);
        });
    }

    #[test]
    fn class_keys_are_stable() {
        let cases = [
            (
                FailureKind::RoundTrip { detail: "x".into() },
                "roundtrip",
            ),
            (
                FailureKind::CompileError { detail: "unknown variable `q`".into() },
                "compile_error:unknown variable `q`",
            ),
            (FailureKind::FrontendPanic { detail: "boom".into() }, "frontend_panic"),
            (
                FailureKind::VerifyReject {
                    stage: "optimize".into(),
                    config: "stl+block".into(),
                    detail: "x".into(),
                },
                "verify_reject:optimize:stl+block",
            ),
            (
                FailureKind::PassPanic {
                    stage: "instrument".into(),
                    config: "parts".into(),
                    detail: "x".into(),
                },
                "pass_panic:instrument:parts",
            ),
            (
                FailureKind::VmPanic { config: "stwc".into(), detail: "x".into() },
                "vm_panic:stwc",
            ),
            (
                FailureKind::StatusDivergence {
                    config: "stc".into(),
                    base: "a".into(),
                    got: "b".into(),
                },
                "status_divergence:stc",
            ),
            (
                FailureKind::OutputDivergence { config: "stc+block".into(), detail: "x".into() },
                "output_divergence:stc+block",
            ),
        ];
        for (kind, want) in cases {
            assert_eq!(kind.class_key(), want);
        }
    }

    #[test]
    fn corpus_write_and_replay_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rsti-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = "int main() {\n    print_int(41 + 1);\n    return 0;\n}\n";
        let path = corpus::write_repro(&dir, "smoke", 3, "status_divergence:stwc", src).unwrap();
        assert!(path.ends_with("smoke.mc"));
        let verdicts = corpus::replay_dir(&dir).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].1, Ok(()), "replayed repro must pass post-fix");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replaying_an_empty_corpus_is_an_error_not_a_pass() {
        let dir = std::env::temp_dir().join(format!("rsti-fuzz-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(corpus::replay_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn committed_corpus_replays_clean() {
        with_quiet_panics(|| {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("tests/corpus");
            let verdicts = corpus::replay_dir(&dir).expect("committed corpus must exist");
            for (path, verdict) in &verdicts {
                assert_eq!(
                    *verdict,
                    Ok(()),
                    "corpus regression {} failed",
                    path.display()
                );
            }
        });
    }

    #[test]
    fn minimizer_edit_walk_covers_nested_statements() {
        let src = r#"
int main() {
    long a = 1;
    if (a > 0) {
        long b = 2;
        while (b > 0) {
            b = b - 1;
        }
    } else {
        a = 0;
    }
    {
        a = a + 1;
    }
    return 0;
}
"#;
        let items = rsti_frontend::parse(src).unwrap();
        // decl, if, decl, while, assign, assign(else), block, assign, return
        assert_eq!(count_stmts(&items), 9);
    }
}
