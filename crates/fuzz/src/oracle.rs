//! The three differential oracles (§6 of the reproduction's DESIGN notes).
//!
//! Every candidate program — generated, minimized, or replayed from the
//! committed corpus — is pushed through the same checks:
//!
//! 1. **Differential output**: the uninstrumented baseline run, the
//!    baseline after the block and cfg levels and after leaf inlining, and
//!    every `Mechanism × {unoptimized, block-local, cfg, ipo}` instrumented
//!    run must agree on exit status and printed output. A well-defined
//!    MiniC program never observes the PAC machinery, so any divergence is
//!    a pipeline bug (or, for hand-written attack programs, a detection —
//!    which is why the committed corpus contains only post-fix *passing*
//!    programs).
//! 2. **IR verification**: `rsti_ir::verify_module` must accept the module
//!    after every pass boundary — lower, instrument, optimize.
//! 3. **No panics**: every stage runs under `catch_unwind`; a panic anywhere
//!    in the frontend, a pass, or the VM is a reportable failure even when
//!    the output would otherwise agree.
//! 4. **Accounting equivalence**: every VM run in the matrix executes under
//!    both of the driver's accounting modes — per-op reference accounting
//!    (`interp`) and block pre-charge with rollback (`compiled`) — and the
//!    complete [`rsti_vm::ExecResult`]s (status, output, cycle/instruction
//!    totals, PAC counters, audit records) must be identical. The per-op
//!    reference is the block pre-charge's oracle.
//!
//! Failures carry a stable [`FailureKind::class_key`] so the delta-debugging
//! reducer can insist that a shrunken candidate reproduces the *same* bug,
//! not merely *a* bug.

use rsti_core::{inline_leaf_functions, instrument, optimize_module, Mechanism, OptLevel};
use rsti_frontend::ast::Item;
use rsti_frontend::{ast_eq_items, compile, parse, print_items};
use rsti_ir::verify_module;
use rsti_ir::Module;
use rsti_vm::{ExecBackend, ExecResult, Image, Status, Trap, Vm};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Instruction budget per VM run. Generated programs finish in well under a
/// million instructions; the cap exists so a reducer candidate that deletes a
/// loop counter update cannot hang the campaign. Runs that exhaust fuel are
/// treated as inconclusive (instrumented runs execute strictly more
/// instructions than the baseline, so a shared cap would otherwise produce
/// false divergences).
pub const FUEL: u64 = 50_000_000;

/// One oracle violation. The `detail`/`base`/`got` payloads are for humans;
/// the machine identity of a failure is [`FailureKind::class_key`].
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// `parse(print(ast))` did not return the same AST (or failed to parse).
    RoundTrip {
        /// What broke: the parse error, or a note that the ASTs differ.
        detail: String,
    },
    /// The frontend rejected a program it should accept.
    CompileError {
        /// The diagnostic message (line numbers stripped: they shift as the
        /// reducer deletes statements, but the message is stable).
        detail: String,
    },
    /// The frontend panicked instead of returning a diagnostic.
    FrontendPanic {
        /// Panic payload.
        detail: String,
    },
    /// `verify_module` rejected the IR after a pass boundary.
    VerifyReject {
        /// Pass that produced the ill-formed module: `lower`, `instrument`,
        /// or `optimize`.
        stage: String,
        /// Pipeline configuration label (e.g. `stwc+opt`).
        config: String,
        /// First verifier error.
        detail: String,
    },
    /// An instrumentation or optimization pass panicked.
    PassPanic {
        /// Pass that panicked.
        stage: String,
        /// Pipeline configuration label.
        config: String,
        /// Panic payload.
        detail: String,
    },
    /// The VM panicked (every abnormal stop must be a structured `Trap`).
    VmPanic {
        /// Pipeline configuration label.
        config: String,
        /// Panic payload.
        detail: String,
    },
    /// Baseline and instrumented runs ended differently.
    StatusDivergence {
        /// Pipeline configuration label.
        config: String,
        /// Baseline status, `Debug`-formatted.
        base: String,
        /// Instrumented status, `Debug`-formatted.
        got: String,
    },
    /// Same status, different printed output.
    OutputDivergence {
        /// Pipeline configuration label.
        config: String,
        /// First differing line, `base` vs `got`.
        detail: String,
    },
    /// Block pre-charge disagreed with per-op reference accounting on the
    /// same image.
    BackendDivergence {
        /// Pipeline configuration label.
        config: String,
        /// First differing `ExecResult` field, interp vs compiled.
        detail: String,
    },
}

impl FailureKind {
    /// Stable identity of the failure, used by the reducer to accept a
    /// candidate only when it reproduces the *same* bug.
    ///
    /// Volatile payloads (panic messages, trap positions, output text) are
    /// excluded: they legitimately change as the reducer deletes statements.
    /// The component that failed — stage plus pipeline configuration — is
    /// what identifies a bug. `CompileError` keeps its message because for a
    /// frontend-reject bug the diagnostic *is* the identity.
    pub fn class_key(&self) -> String {
        match self {
            FailureKind::RoundTrip { .. } => "roundtrip".into(),
            FailureKind::CompileError { detail } => format!("compile_error:{detail}"),
            FailureKind::FrontendPanic { .. } => "frontend_panic".into(),
            FailureKind::VerifyReject { stage, config, .. } => {
                format!("verify_reject:{stage}:{config}")
            }
            FailureKind::PassPanic { stage, config, .. } => {
                format!("pass_panic:{stage}:{config}")
            }
            FailureKind::VmPanic { config, .. } => format!("vm_panic:{config}"),
            FailureKind::StatusDivergence { config, .. } => {
                format!("status_divergence:{config}")
            }
            FailureKind::OutputDivergence { config, .. } => {
                format!("output_divergence:{config}")
            }
            FailureKind::BackendDivergence { config, .. } => {
                format!("backend_divergence:{config}")
            }
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::RoundTrip { detail } => write!(f, "printer round-trip: {detail}"),
            FailureKind::CompileError { detail } => write!(f, "compile error: {detail}"),
            FailureKind::FrontendPanic { detail } => write!(f, "frontend panic: {detail}"),
            FailureKind::VerifyReject { stage, config, detail } => {
                write!(f, "verifier reject after {stage} ({config}): {detail}")
            }
            FailureKind::PassPanic { stage, config, detail } => {
                write!(f, "panic in {stage} ({config}): {detail}")
            }
            FailureKind::VmPanic { config, detail } => write!(f, "VM panic ({config}): {detail}"),
            FailureKind::StatusDivergence { config, base, got } => {
                write!(f, "status divergence ({config}): baseline {base}, instrumented {got}")
            }
            FailureKind::OutputDivergence { config, detail } => {
                write!(f, "output divergence ({config}): {detail}")
            }
            FailureKind::BackendDivergence { config, detail } => {
                write!(f, "backend divergence ({config}): {detail}")
            }
        }
    }
}

/// Short lowercase label for a mechanism, used in config labels and class
/// keys (`Mechanism::name` returns the paper-style display name).
fn mech_label(m: Mechanism) -> &'static str {
    match m {
        Mechanism::Stwc => "stwc",
        Mechanism::Stc => "stc",
        Mechanism::Stl => "stl",
        Mechanism::Parts => "parts",
    }
}

pub(crate) fn panic_msg(p: Box<dyn Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Whether [`run_image`] cross-checks block pre-charge against the
    /// per-op reference accounting (the `exec=compiled` oracle column). On
    /// by default; `rsti fuzz --backend interp` opts out for a
    /// reference-only campaign. Thread-local because parallel in-process
    /// campaigns (the test harness) must not see each other's choice.
    static EXEC_ORACLE: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };

    /// Whether every VM run in the oracle matrix carries the attribution
    /// profiler (`rsti fuzz --attr`). Off by default — the campaign then
    /// exercises the production configuration. On, it pins the profiler's
    /// inertness guarantee across the whole generated-program space: the
    /// differential verdicts must be unchanged, and (with the exec oracle)
    /// both accounting modes must produce identical profiles, since
    /// [`rsti_vm::ExecResult`] equality covers `attr`.
    static ATTR_PROFILE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Whether every VM run in the oracle matrix arms the pointer-lifecycle
    /// flight recorder (`rsti fuzz --record`). Off by default. On, any run
    /// that traps on an RSTI detection synthesizes an [`rsti_vm::Incident`]
    /// in both accounting modes, and the exec oracle's `ExecResult`
    /// equality then covers the full incident — failing check site,
    /// lineage, event window, model-cycle timestamps — bit for bit.
    static RECORD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Enables or disables the compiled-engine oracle column for campaigns on
/// the current thread.
pub fn set_exec_oracle(on: bool) {
    EXEC_ORACLE.with(|c| c.set(on));
}

/// Enables or disables the attribution profiler on every oracle VM run on
/// the current thread (the `--attr` fuzz knob; see `ATTR_PROFILE`).
pub fn set_attr_profile(on: bool) {
    ATTR_PROFILE.with(|c| c.set(on));
}

/// Enables or disables the flight recorder on every oracle VM run on the
/// current thread (the `--record` fuzz knob; see `RECORD`).
pub fn set_record(on: bool) {
    RECORD.with(|c| c.set(on));
}

/// Runs one image under reference accounting and block pre-charge, diffs
/// the complete [`ExecResult`]s (the `exec=compiled` oracle column), and
/// returns the reference run's view.
fn run_image(img: &Image, config: &str) -> Result<(Status, Vec<String>), FailureKind> {
    let mut img = img.clone().with_exec(ExecBackend::Interp);
    // With the `--attr` knob on, every run carries the profiler (a small
    // sampling period so short generated programs still sample); the
    // verdicts below must be exactly what the unprofiled run produces.
    if ATTR_PROFILE.with(|c| c.get()) {
        img = img.with_attr_sampling(256);
    }
    // `--record`: the flight recorder rides every run; incident equality
    // between the two modes comes with the `ExecResult` diff below.
    if RECORD.with(|c| c.get()) {
        img = img.with_record();
    }
    let r = catch_unwind(AssertUnwindSafe(|| {
        let mut vm = Vm::new(&img);
        vm.set_fuel(FUEL);
        vm.run()
    }))
    .map_err(|p| FailureKind::VmPanic { config: config.into(), detail: panic_msg(p) })?;
    if !EXEC_ORACLE.with(|c| c.get()) {
        return Ok((r.status, r.output));
    }
    let cimg = img.clone().with_exec(ExecBackend::Compiled);
    let c = catch_unwind(AssertUnwindSafe(|| {
        let mut vm = Vm::new(&cimg);
        vm.set_fuel(FUEL);
        vm.run()
    }))
    .map_err(|p| FailureKind::VmPanic {
        config: format!("{config}@compiled"),
        detail: panic_msg(p),
    })?;
    if c != r {
        return Err(FailureKind::BackendDivergence {
            config: config.into(),
            detail: backend_diff(&r, &c),
        });
    }
    Ok((r.status, r.output))
}

/// Names the first `ExecResult` field on which the engines disagree.
fn backend_diff(i: &ExecResult, c: &ExecResult) -> String {
    if i.status != c.status {
        return format!("status: interp {:?} vs compiled {:?}", i.status, c.status);
    }
    if i.output != c.output {
        return format!("output: {} vs {} lines", i.output.len(), c.output.len());
    }
    if i.insts != c.insts {
        return format!("insts: interp {} vs compiled {}", i.insts, c.insts);
    }
    if i.cycles != c.cycles {
        return format!("cycles: interp {} vs compiled {}", i.cycles, c.cycles);
    }
    if i.audit != c.audit {
        return format!("audit: {} vs {} records", i.audit.len(), c.audit.len());
    }
    if i.attr != c.attr {
        return "attr: attribution profiles diverge".to_string();
    }
    if i.incident != c.incident {
        return "incident: flight-recorder incidents diverge".to_string();
    }
    format!("field-level mismatch: interp {i:?} vs compiled {c:?}")
}

fn check_verified(m: &Module, stage: &str, config: &str) -> Result<(), FailureKind> {
    verify_module(m).map_err(|errs| FailureKind::VerifyReject {
        stage: stage.into(),
        config: config.into(),
        detail: errs.first().map(|e| e.to_string()).unwrap_or_default(),
    })
}

fn compare(
    config: &str,
    base: &(Status, Vec<String>),
    got: &(Status, Vec<String>),
) -> Result<(), FailureKind> {
    let fuel_bound = |s: &Status| matches!(s, Status::Trapped(Trap::FuelExhausted));
    if fuel_bound(&base.0) || fuel_bound(&got.0) {
        return Ok(());
    }
    if base.0 != got.0 {
        return Err(FailureKind::StatusDivergence {
            config: config.into(),
            base: format!("{:?}", base.0),
            got: format!("{:?}", got.0),
        });
    }
    if base.1 != got.1 {
        let detail = base
            .1
            .iter()
            .zip(got.1.iter())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {i}: `{a}` vs `{b}`"))
            .unwrap_or_else(|| format!("{} vs {} output lines", base.1.len(), got.1.len()));
        return Err(FailureKind::OutputDivergence { config: config.into(), detail });
    }
    Ok(())
}

/// Runs all three oracles on an AST, including the printer round-trip check
/// against `items` itself. This is the entry point for generated programs
/// and for reducer candidates.
pub fn check_items(items: &[Item]) -> Result<(), FailureKind> {
    let src = catch_unwind(AssertUnwindSafe(|| print_items(items)))
        .map_err(|p| FailureKind::FrontendPanic { detail: format!("printer: {}", panic_msg(p)) })?;
    let reparsed = catch_unwind(AssertUnwindSafe(|| parse(&src)))
        .map_err(|p| FailureKind::FrontendPanic { detail: format!("parser: {}", panic_msg(p)) })?
        .map_err(|e| FailureKind::RoundTrip { detail: format!("reparse failed: {}", e.msg) })?;
    if !ast_eq_items(items, &reparsed) {
        return Err(FailureKind::RoundTrip { detail: "parse(print(ast)) != ast".into() });
    }
    check_compiled(&src)
}

/// Runs the oracles on source text (corpus replay). The round-trip oracle
/// checks `parse(print(parse(src))) == parse(src)`; the differential and
/// verifier oracles are identical to [`check_items`].
pub fn check_source(src: &str) -> Result<(), FailureKind> {
    let items = catch_unwind(AssertUnwindSafe(|| parse(src)))
        .map_err(|p| FailureKind::FrontendPanic { detail: format!("parser: {}", panic_msg(p)) })?
        .map_err(|e| FailureKind::CompileError { detail: e.msg })?;
    check_items(&items)
}

/// The differential and verifier oracles on already-round-tripped source.
fn check_compiled(src: &str) -> Result<(), FailureKind> {
    let m = catch_unwind(AssertUnwindSafe(|| compile(src, "fuzz")))
        .map_err(|p| FailureKind::FrontendPanic { detail: panic_msg(p) })?
        .map_err(|e| FailureKind::CompileError { detail: e.msg })?;
    check_verified(&m, "lower", "baseline")?;

    let img = Image::baseline(&m);
    let base = run_image(&img, "baseline")?;

    // Short opt-level suffixes: `""` (unoptimized), `"+opt"` (the
    // block-local pipeline), `"+cfg"` (dominator elision, hoisting,
    // precomputed modifiers), `"+ipo"` (interprocedural summaries,
    // resign folding, inlining).
    fn level_suffix(level: OptLevel) -> &'static str {
        match level {
            OptLevel::None => "",
            OptLevel::BlockLocal => "+opt",
            OptLevel::Cfg => "+cfg",
            OptLevel::Ipo => "+ipo",
        }
    }

    // Optimizer correctness on the uninstrumented module (mem2reg,
    // hoisting etc. must not change observable behaviour even before any
    // PAC ops exist).
    for level in [OptLevel::BlockLocal, OptLevel::Cfg] {
        let config = format!("baseline{}", level_suffix(level));
        let mut om = m.clone();
        catch_unwind(AssertUnwindSafe(|| optimize_module(&mut om, level))).map_err(|p| {
            FailureKind::PassPanic {
                stage: "optimize".into(),
                config: config.clone(),
                detail: panic_msg(p),
            }
        })?;
        check_verified(&om, "optimize", &config)?;
        let got = run_image(&Image::baseline(&om), &config)?;
        compare(&config, &base, &got)?;
    }

    // The transform every Fig. 9 proxy goes through before instrumentation:
    // leaf inlining, checked on the uninstrumented module.
    let config = "baseline+inline";
    let mut im = m.clone();
    catch_unwind(AssertUnwindSafe(|| inline_leaf_functions(&mut im, 96))).map_err(|p| {
        FailureKind::PassPanic {
            stage: "inline".into(),
            config: config.into(),
            detail: panic_msg(p),
        }
    })?;
    check_verified(&im, "inline", config)?;
    let got = run_image(&Image::baseline(&im), config)?;
    compare(config, &base, &got)?;

    for mech in Mechanism::ALL {
        for level in OptLevel::ALL {
            let config = format!("{}{}", mech_label(mech), level_suffix(level));
            let mut p = catch_unwind(AssertUnwindSafe(|| instrument(&m, mech))).map_err(|p| {
                FailureKind::PassPanic {
                    stage: "instrument".into(),
                    config: config.clone(),
                    detail: panic_msg(p),
                }
            })?;
            check_verified(&p.module, "instrument", &config)?;
            if level != OptLevel::None {
                catch_unwind(AssertUnwindSafe(|| optimize_module(&mut p.module, level)))
                    .map_err(|e| FailureKind::PassPanic {
                        stage: "optimize".into(),
                        config: config.clone(),
                        detail: panic_msg(e),
                    })?;
                check_verified(&p.module, "optimize", &config)?;
            }
            let got = run_image(&Image::from_instrumented(&p), &config)?;
            compare(&config, &base, &got)?;
        }
    }
    Ok(())
}
