//! The detection matrix: every Table 1 scenario (12 rows plus 3 extras) and
//! every Table 2 probe, under every defense × opt level × accounting mode,
//! one line per cell: `victim defense level engine verdict`. Each victim
//! compiles once per test, and every cell builds its image through the one
//! attack driver ([`Victim::attack`]), the recipe Fig. 9's cells use.
//!
//! The security claim has to hold at every level where Fig. 9 reports
//! overhead. So every cell must equal its unoptimized (`none`) cell, interp
//! must equal compiled, and no cell may be inconclusive (`??`). A cell that
//! differs from `none` must carry its reason in the golden, after ` # `.
//! The scenario may not be changed to make the cell agree.

use rsti_attacks::capability::{all_probes, Probe};
use rsti_attacks::{scenarios, table2_label, Scenario, Verdict, Victim, DEFENSES};
use rsti_core::{Mechanism, OptLevel};
use rsti_vm::ExecBackend;
use std::collections::HashMap;
use std::fmt::Write;

const GOLDEN: &str = include_str!("detection_matrix.golden");

const ENGINES: [ExecBackend; 2] = [ExecBackend::Interp, ExecBackend::Compiled];

type Label = fn(&Verdict) -> &'static str;

/// Every victim, compiled once, with the cell labels of its table.
fn victims<'a>(t1: &'a [Scenario], t2: &'a [Probe]) -> Vec<(Victim<'a>, Label)> {
    let table1: Label = Verdict::label;
    let table2: Label = table2_label;
    t1.iter()
        .map(|s| (Victim::scenario(s), table1))
        .chain(t2.iter().map(|p| (Victim::probe(p), table2)))
        .collect()
}

fn table1_victims() -> Vec<Scenario> {
    scenarios::all().into_iter().chain(scenarios::extras()).collect()
}

fn defense(d: Option<Mechanism>) -> &'static str {
    d.map_or("none", |m| m.label())
}

fn table() -> String {
    let (t1, t2) = (table1_victims(), all_probes());
    let mut out = String::new();
    for (v, label) in victims(&t1, &t2) {
        for d in DEFENSES {
            for level in OptLevel::ALL {
                for exec in ENGINES {
                    let verdict = v.attack(d, level, exec, false).0;
                    let _ = writeln!(
                        out,
                        "{:<26} {:<5} {:<5} {:<8} {}",
                        v.id,
                        defense(d),
                        level.label(),
                        exec.label(),
                        label(&verdict)
                    );
                }
            }
        }
    }
    out
}

#[test]
fn detection_matrix_matches_golden_at_every_level() {
    let got = table();
    // Golden lines minus their reasons, and the reasons by cell.
    let mut reasons = HashMap::new();
    let golden: String = GOLDEN
        .lines()
        .map(|l| match l.split_once(" # ") {
            Some((cell, why)) => {
                let cell = cell.trim_end();
                reasons.insert(cell.to_string(), why.to_string());
                format!("{cell}\n")
            }
            None => format!("{l}\n"),
        })
        .collect();
    if got != golden {
        // The full table, for pasting into `detection_matrix.golden` when
        // a verdict change is intended (shown with `--nocapture`).
        println!("{got}");
        let diffs: Vec<String> = golden
            .lines()
            .zip(got.lines())
            .filter(|(a, b)| a != b)
            .take(10)
            .map(|(a, b)| format!("- {a}\n+ {b}"))
            .collect();
        panic!(
            "detection matrix drifted from detection_matrix.golden ({} vs {} lines); \
             first differences:\n{}",
            golden.lines().count(),
            got.lines().count(),
            diffs.join("\n")
        );
    }

    // (victim, defense, level, engine) -> verdict label.
    let cells: HashMap<(&str, &str, &str, &str), &str> = got
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            ((f[0], f[1], f[2], f[3]), f[4])
        })
        .collect();
    assert_eq!(cells.len(), 20 * 5 * 4 * 2, "one line per cell");
    for line in got.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let (id, def, level, engine, verdict) = (f[0], f[1], f[2], f[3], f[4]);
        assert_ne!(verdict, "??", "inconclusive cell: {line}");
        let other = if engine == "interp" { "compiled" } else { "interp" };
        assert_eq!(
            verdict,
            cells[&(id, def, level, other)],
            "{id} {def} {level}: interp and compiled disagree"
        );
        let unoptimized = cells[&(id, def, "none", engine)];
        if verdict != unoptimized {
            assert!(
                reasons.contains_key(line.trim_end()),
                "{line}: differs from its `none` cell ({unoptimized}) with no reason \
                 in the golden"
            );
        }
    }
}

#[test]
fn every_victim_runs_cleanly_unattacked_at_every_level() {
    let (t1, t2) = (table1_victims(), all_probes());
    for (v, _) in victims(&t1, &t2) {
        for d in DEFENSES {
            for level in OptLevel::ALL {
                for exec in ENGINES {
                    v.check_benign(d, level, exec).unwrap_or_else(|e| {
                        panic!(
                            "{} under {} at {} ({}): {e}",
                            v.id,
                            defense(d),
                            level.label(),
                            exec.label()
                        )
                    });
                }
            }
        }
    }
}
