//! Golden per-stage optimizer counts and optimized-IR hashes.
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

use rsti_core::{Mechanism, OptLevel, OptSummary};
use rsti_ir::{Inst, Module};
use rsti_workloads::AstGenConfig;
use std::fmt::Write;

const GOLDEN: &str = include_str!("opt_counts.golden");

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
        elided_block,
        hoisted,
        elided_dom,
        premods,
        compacted,
        resigns_folded,
        inlined,
        elided_ipo,
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
        "{name} {mech:?} {} promoted={promoted} elided_block={elided_block} hoisted={hoisted} \
         elided_dom={elided_dom} premods={premods} compacted={compacted} \
         resigns_folded={resigns_folded} inlined={inlined} elided_ipo={elided_ipo} \
         refined={refined} auths={auths} ir={ir:016x}",
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

fn table() -> String {
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

#[test]
fn per_stage_counts_match_golden() {
    let got = table();
    if got == GOLDEN {
        return;
    }
    // The full table, for pasting into `opt_counts.golden` when a change
    // to the optimizer is intended (shown with `--nocapture`).
    println!("{got}");
    let diffs: Vec<String> = GOLDEN
        .lines()
        .zip(got.lines())
        .filter(|(a, b)| a != b)
        .take(10)
        .map(|(a, b)| format!("- {a}\n+ {b}"))
        .collect();
    panic!(
        "optimizer counts drifted from opt_counts.golden ({} vs {} lines); first differences:\n{}",
        GOLDEN.lines().count(),
        got.lines().count(),
        diffs.join("\n")
    );
}
