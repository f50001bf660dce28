//! Golden per-stage optimizer counts on every Fig. 9 proxy.
//!
//! Each proxy is prepared as Fig. 9's are (`Workload::proxy_module`, leaf
//! inlining) and instrumented, and the optimizer runs at every level under
//! every mechanism. One line per cell records every [`OptSummary`] field plus
//! the static `PacAuth` count left in the module. The table pins exact
//! numbers, not inequalities: a refactor of the optimizer must leave it
//! byte-identical, and an intended change to what a stage removes shows up
//! here line by line.

use rsti_core::{Mechanism, OptLevel, OptSummary};
use rsti_ir::Inst;
use std::fmt::Write;

const GOLDEN: &str = include_str!("opt_counts.golden");

fn line(
    out: &mut String,
    name: &str,
    mech: Mechanism,
    level: OptLevel,
    s: &OptSummary,
    auths: usize,
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
    let _ = writeln!(
        out,
        "{name} {mech:?} {} promoted={promoted} elided_block={elided_block} hoisted={hoisted} \
         elided_dom={elided_dom} premods={premods} compacted={compacted} \
         resigns_folded={resigns_folded} inlined={inlined} elided_ipo={elided_ipo} \
         refined={refined} auths={auths}",
        level.label()
    );
}

fn table() -> String {
    let mut out = String::new();
    for w in rsti_workloads::all_workloads() {
        let m = w.proxy_module();
        for mech in Mechanism::ALL {
            let p = rsti_core::instrument(&m, mech);
            for level in OptLevel::ALL {
                let mut pm = p.module.clone();
                let s = rsti_core::optimize_module(&mut pm, level);
                let auths = pm
                    .funcs
                    .iter()
                    .flat_map(|f| f.insts())
                    .filter(|n| matches!(n.inst, Inst::PacAuth { .. }))
                    .count();
                line(&mut out, w.name, mech, level, &s, auths);
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
