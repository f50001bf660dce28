//! Golden per-stage optimizer counts and optimized-IR hashes, plus golden
//! instrumentation output.
//!
//! Three program sets go through the optimizer at every level under every
//! mechanism:
//!
//! * every Fig. 9 proxy, prepared as Fig. 9's are (`Workload::proxy_module`,
//!   leaf inlining);
//! * twelve `generate_source` programs in the enlarged `AstGenConfig`
//!   shapes the cold-compile benchmark draws from (up to six times the
//!   default source size);
//! * every `tests/corpus/*.mc` regression program.
//!
//! One line per cell records every [`OptSummary`] field, the static
//! `PacAuth` count left in the module, and `ir=`, the FNV-1a 64 hash of
//! the optimized module's [`rsti_ir::print_module`] text. The table pins
//! exact numbers and the exact output, not inequalities: a refactor of the
//! optimizer must leave it byte-identical, and an intended change to what a
//! stage removes shows up here line by line.
//!
//! `instrument_counts.golden` pins the instrumentation pass alone on the
//! same programs, under every fixed mechanism and the §7 adaptive variant
//! at `DEFAULT_ECV_THRESHOLD`: one line per cell with every
//! [`rsti_core::InstrumentStats`] field, the load-time signing list and the
//! hash of the unoptimized instrumented module.

use rsti_core::{MechChoice, Mechanism, OptLevel, OptSummary};
use rsti_ir::{Inst, Module};
use rsti_workloads::AstGenConfig;
use std::fmt::Write;

const GOLDEN: &str = include_str!("opt_counts.golden");
const INSTRUMENT_GOLDEN: &str = include_str!("instrument_counts.golden");

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(
    out: &mut String,
    name: &str,
    mech: Mechanism,
    level: OptLevel,
    s: &OptSummary,
    m: &Module,
) {
    let OptSummary {
        promoted,
        elided,
        hoisted,
        premods,
        compacted,
        resigns_folded,
        inlined,
        refined,
    } = *s;
    let auths = m
        .funcs
        .iter()
        .flat_map(|f| f.insts())
        .filter(|n| matches!(n.inst, Inst::PacAuth { .. }))
        .count();
    let ir = fnv1a64(rsti_ir::print_module(m).as_bytes());
    let _ = writeln!(
        out,
        "{name} {mech:?} {} promoted={promoted} elided={elided} hoisted={hoisted} \
         premods={premods} compacted={compacted} resigns_folded={resigns_folded} \
         inlined={inlined} refined={refined} auths={auths} ir={ir:016x}",
        level.label()
    );
}

/// Every (mechanism, level) cell of one program.
fn cells(out: &mut String, name: &str, m: &Module) {
    for mech in Mechanism::ALL {
        let p = rsti_core::instrument(m, mech);
        for level in OptLevel::ALL {
            let mut pm = p.module.clone();
            let s = rsti_core::optimize_module(&mut pm, level);
            line(out, name, mech, level, &s, &pm);
        }
    }
}

/// Every instrumentation cell of one program: the four fixed mechanisms,
/// then the adaptive variant.
fn instrument_cells(out: &mut String, name: &str, m: &Module) {
    let choices = Mechanism::ALL.map(MechChoice::Fixed);
    for choice in choices.into_iter().chain([MechChoice::Adaptive]) {
        let p = choice.instrument(m).expect("an instrumenting choice");
        let rsti_core::InstrumentStats {
            signs_on_store,
            auths_on_load,
            cast_resigns,
            arg_resigns,
            strips,
            pp_signs,
            pp_auths,
        } = p.stats;
        let signing: Vec<String> = p
            .global_signing
            .iter()
            .map(|g| {
                let mix = u8::from(g.mix_location);
                format!("g{}:{:?}:{:016x}:{mix}", g.global.0, g.key, g.modifier)
            })
            .collect();
        let ir = fnv1a64(rsti_ir::print_module(&p.module).as_bytes());
        let _ = writeln!(
            out,
            "{name} {} signs_on_store={signs_on_store} auths_on_load={auths_on_load} \
             cast_resigns={cast_resigns} arg_resigns={arg_resigns} strips={strips} \
             pp_signs={pp_signs} pp_auths={pp_auths} signing=[{}] ir={ir:016x}",
            choice.label(),
            signing.join(",")
        );
    }
}

/// The `k`-th generated program shape: the default grown along every
/// dimension the cold-compile pool grows (up to +3 structs, +3 hooks, +20
/// workers, +6 statements per worker), spread so sizes cover the range.
fn generated_shape(k: u32) -> AstGenConfig {
    let d = AstGenConfig::default();
    AstGenConfig {
        structs: d.structs + k % 4,
        hooks: d.hooks + (k / 4) % 4,
        funcs: d.funcs + (k * 7) % 21,
        stmts_per_func: d.stmts_per_func + (k * 5) % 7,
        ..d
    }
}

const GENERATED: u32 = 12;

/// `cells` applied to every program of the three sets, in order.
fn table(cells: fn(&mut String, &str, &Module)) -> String {
    let mut out = String::new();
    for w in rsti_workloads::all_workloads() {
        cells(&mut out, w.name, &w.proxy_module());
    }
    for k in 0..GENERATED {
        let src = rsti_workloads::generate_source(0x6f70_7400 + u64::from(k), generated_shape(k));
        let m = rsti_frontend::compile(&src, "gen").expect("generated programs compile");
        cells(&mut out, &format!("gen{k:02}"), &m);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("committed corpus")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    files.sort();
    for path in files {
        let name = path
            .file_stem()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path).expect("corpus file");
        match rsti_frontend::compile(&src, "corpus") {
            Ok(m) => cells(&mut out, &name, &m),
            Err(e) => {
                let _ = writeln!(out, "{name} compile-error {e}");
            }
        }
    }
    out
}

/// Panics with the first differing lines unless `got` equals `golden`.
fn assert_golden(got: &str, golden: &str, file: &str) {
    if got == golden {
        return;
    }
    // The full table, for pasting into the golden file when a change is
    // intended (shown with `--nocapture`).
    println!("{got}");
    let diffs: Vec<String> = golden
        .lines()
        .zip(got.lines())
        .filter(|(a, b)| a != b)
        .take(10)
        .map(|(a, b)| format!("- {a}\n+ {b}"))
        .collect();
    panic!(
        "output drifted from {file} ({} vs {} lines); first differences:\n{}",
        golden.lines().count(),
        got.lines().count(),
        diffs.join("\n")
    );
}

#[test]
fn per_stage_counts_match_golden() {
    assert_golden(&table(cells), GOLDEN, "opt_counts.golden");
}

/// Crosses every boundary the three sets leave untouched: external-call
/// strips, a lost-type double pointer (CE/FE), statically initialized
/// code and string pointers, a casted indirect-call argument and pointer
/// returns.
const BOUNDARIES: &str = r#"
    extern void syslog(char* msg);
    struct node { long key; struct node* next; };
    struct obj { long (*op)(void* self); };
    long hook(void* self) { return 1; }
    long (*g_hook)(void* self) = hook;
    char* g_name = "rsti";
    void sink(void** pp) { void* inner = *pp; *pp = inner; }
    struct node* pass(struct node* n) { return n; }
    long call_op(struct obj* o, struct node* n) { return o->op((void*) n); }
    int main() {
        struct node* p = (struct node*) malloc(sizeof(struct node));
        sink((void**) &p);
        syslog(g_name);
        struct obj* o = (struct obj*) malloc(sizeof(struct obj));
        o->op = g_hook;
        struct node* q = pass(p);
        return (int) call_op(o, q);
    }
"#;

#[test]
fn instrumentation_matches_golden() {
    let mut got = table(instrument_cells);
    let samples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../samples");
    for name in ["dispatcher", "fig5_paper", "linked_list"] {
        let src = std::fs::read_to_string(samples.join(format!("{name}.mc"))).expect("sample");
        let m = rsti_frontend::compile(&src, name).expect("samples compile");
        instrument_cells(&mut got, name, &m);
    }
    for s in rsti_attacks::scenarios::all() {
        let m = rsti_frontend::compile(s.source, s.id).expect("attack victims compile");
        instrument_cells(&mut got, s.id, &m);
    }
    let m = rsti_frontend::compile(BOUNDARIES, "boundaries").expect("boundaries compile");
    instrument_cells(&mut got, "boundaries", &m);
    assert_golden(&got, INSTRUMENT_GOLDEN, "instrument_counts.golden");
}
