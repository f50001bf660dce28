//! The security-evaluation harness.
//!
//! Each Table 1 row becomes a [`Scenario`]: a MiniC victim whose pointer
//! scope-type relationships mirror the paper's table, plus a corruption
//! procedure using the VM's attacker API and a payload predicate. The
//! harness runs every scenario under no defense, PARTS, and the three RSTI
//! mechanisms, and *derives* the verdict from what actually happens — the
//! attack either achieves its goal, is detected by an authentication trap,
//! or crashes.

use rsti_core::Mechanism;
use rsti_frontend::compile;
use rsti_vm::{ExecBackend, ExecResult, Image, Incident, RunStop, Status, Trap, Vm};
use std::fmt;

/// Attack category (Table 1 grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Control-flow hijacking.
    ControlFlow,
    /// Data-oriented attack.
    DataOriented,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Category::ControlFlow => write!(f, "control-flow hijacking"),
            Category::DataOriented => write!(f, "data-oriented"),
        }
    }
}

/// Whether the exploit targets real-life software code (R) or synthetic
/// victim code (S), per the paper's annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Attack on (modelled) real software.
    Real,
    /// Contrived exploit of the class.
    Synthetic,
}

/// How the attacker corrupts memory once the victim is paused.
pub enum Corruption {
    /// Write a raw 64-bit value (e.g. a code address) into a slot. The
    /// classic overwrite: the value carries no PAC.
    RawWrite {
        /// Resolves the destination slot address.
        dest: fn(&Vm) -> Option<u64>,
        /// Resolves the value to plant.
        value: fn(&Vm) -> Option<u64>,
    },
    /// Replay/substitution: copy the (signed) 8-byte pointer at `src` into
    /// `dest`. Defeats naive PAC schemes when both slots share a modifier.
    Replay {
        /// Resolves the source slot.
        src: fn(&Vm) -> Option<u64>,
        /// Resolves the destination slot.
        dest: fn(&Vm) -> Option<u64>,
    },
}

/// One Table 1 row.
pub struct Scenario {
    /// Short id, e.g. `newton-cscfi`.
    pub id: &'static str,
    /// Paper row name.
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// (R) or (S).
    pub kind: AttackKind,
    /// The corrupted pointer, paper notation.
    pub corrupted_ptr: &'static str,
    /// Original scope-type information (paper column).
    pub original_info: &'static str,
    /// Corrupted scope-type information (paper column).
    pub corrupted_info: &'static str,
    /// The MiniC victim program.
    pub source: &'static str,
    /// Function at whose entry the corruption happens.
    pub pause_at: &'static str,
    /// The corruption.
    pub corruption: Corruption,
    /// Whether the payload achieved its goal.
    pub payload_check: fn(&ExecResult) -> bool,
}

/// Outcome of one scenario under one defense.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The attack achieved its goal — the defense failed.
    PayloadExecuted,
    /// An RSTI/PAC check fired — the defense detected the attack.
    Detected(Trap),
    /// The program crashed for a non-defense reason (attack failed, but
    /// not detected as such).
    Crashed(Trap),
    /// The program ran to completion without executing the payload.
    Survived,
    /// Harness problem (victim failed to reach the pause point, or the
    /// corruption addresses did not resolve).
    Inconclusive(String),
}

impl Verdict {
    /// Whether the defense stopped the payload (detected or otherwise).
    pub fn stopped(&self) -> bool {
        !matches!(self, Verdict::PayloadExecuted | Verdict::Inconclusive(_))
    }

    /// Short cell label for the Table 1 report.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::PayloadExecuted => "HIJACKED",
            Verdict::Detected(_) => "detected",
            Verdict::Crashed(_) => "crashed",
            Verdict::Survived => "survived",
            Verdict::Inconclusive(_) => "??",
        }
    }
}

/// The defenses evaluated, in report order.
pub const DEFENSES: [Option<Mechanism>; 5] = [
    None,
    Some(Mechanism::Parts),
    Some(Mechanism::Stc),
    Some(Mechanism::Stwc),
    Some(Mechanism::Stl),
];

/// Name of a defense column.
pub fn defense_name(d: Option<Mechanism>) -> &'static str {
    match d {
        None => "no defense",
        Some(m) => m.name(),
    }
}

/// Runs one scenario under one defense (default accounting, block
/// pre-charge) and derives the verdict.
pub fn evaluate(s: &Scenario, defense: Option<Mechanism>) -> Verdict {
    evaluate_with_record(s, defense, ExecBackend::default(), false).0
}

/// [`evaluate`], with the accounting mode selectable and the flight
/// recorder optionally armed: when `record` is on and the defense detects
/// the corruption, the returned [`Incident`] is the forensic narrative of
/// the attack — failing check site, expected-vs-presented modifier,
/// sign-site lineage, event window. Both modes produce bit-identical
/// incidents.
pub fn evaluate_with_record(
    s: &Scenario,
    defense: Option<Mechanism>,
    exec: ExecBackend,
    record: bool,
) -> (Verdict, Option<Box<Incident>>) {
    let m = match compile(s.source, s.id) {
        Ok(m) => m,
        Err(e) => {
            return (Verdict::Inconclusive(format!("victim does not compile: {e}")), None)
        }
    };
    let mut img = match defense {
        None => Image::baseline(&m),
        Some(mech) => Image::from_instrumented(&rsti_core::instrument(&m, mech)),
    };
    img = img.with_exec(exec);
    if record {
        img = img.with_record();
    }
    let mut vm = Vm::new(&img);
    match vm.run_to_function(s.pause_at) {
        RunStop::Entered => {}
        RunStop::Done(st) => {
            return (
                Verdict::Inconclusive(format!("victim never reached {}: {st:?}", s.pause_at)),
                None,
            )
        }
    }
    // Perform the corruption.
    let err = match &s.corruption {
        Corruption::RawWrite { dest, value } => {
            match (dest(&vm), value(&vm)) {
                (Some(d), Some(v)) => vm.attacker_write_u64(d, v).err().map(|e| e.to_string()),
                _ => Some("corruption addresses did not resolve".into()),
            }
        }
        Corruption::Replay { src, dest } => match (src(&vm), dest(&vm)) {
            (Some(sa), Some(da)) => match vm.attacker_read(sa, 8) {
                Ok(bytes) => vm.attacker_write(da, &bytes).err().map(|e| e.to_string()),
                Err(e) => Some(e.to_string()),
            },
            _ => Some("corruption addresses did not resolve".into()),
        },
    };
    if let Some(e) = err {
        return (Verdict::Inconclusive(e), None);
    }
    let r = vm.finish();
    if (s.payload_check)(&r) {
        return (Verdict::PayloadExecuted, r.incident);
    }
    let verdict = match r.status {
        Status::Exited(_) => Verdict::Survived,
        Status::Trapped(t) if t.is_detection() => Verdict::Detected(t),
        Status::Trapped(t) => Verdict::Crashed(t),
    };
    (verdict, r.incident)
}

/// Sanity check: the victim must run cleanly (no traps, no payload) when
/// *not* attacked, under every defense. Returns an error description.
pub fn check_benign(s: &Scenario, defense: Option<Mechanism>) -> Result<(), String> {
    let m = compile(s.source, s.id).map_err(|e| format!("compile: {e}"))?;
    let img = match defense {
        None => Image::baseline(&m),
        Some(mech) => Image::from_instrumented(&rsti_core::instrument(&m, mech)),
    };
    let r = Vm::new(&img).run();
    match &r.status {
        Status::Exited(_) => {
            if (s.payload_check)(&r) {
                Err("payload fires without an attack".into())
            } else {
                Ok(())
            }
        }
        Status::Trapped(t) => Err(format!("benign run trapped: {t}")),
    }
}

/// One row of the full evaluation matrix.
pub struct MatrixRow {
    /// Scenario id.
    pub id: &'static str,
    /// Verdicts in [`DEFENSES`] order.
    pub verdicts: Vec<Verdict>,
}

/// Runs the full matrix over `scenarios`.
pub fn run_matrix(scenarios: &[Scenario]) -> Vec<MatrixRow> {
    scenarios
        .iter()
        .map(|s| MatrixRow {
            id: s.id,
            verdicts: DEFENSES.iter().map(|&d| evaluate(s, d)).collect(),
        })
        .collect()
}

/// Renders the Table 1 report.
pub fn render_table1(scenarios: &[Scenario], matrix: &[MatrixRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1 reproduction: real and synthesized exploits vs. defenses\n\
         (paper: all rows detected by RSTI; PARTS misses same-basic-type\n\
         substitutions such as DOP ProFTPd and PittyPat)\n\n",
    );
    out.push_str(&format!(
        "{:<22} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
        "attack", "no defense", "PARTS", "STC", "STWC", "STL"
    ));
    for (s, row) in scenarios.iter().zip(matrix) {
        out.push_str(&format!(
            "{:<22} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
            s.id,
            row.verdicts[0].label(),
            row.verdicts[1].label(),
            row.verdicts[2].label(),
            row.verdicts[3].label(),
            row.verdicts[4].label(),
        ));
    }
    out.push('\n');
    for s in scenarios {
        out.push_str(&format!(
            "{:<22} [{}] {} ({:?})\n    corrupted: {}\n    original:  {}\n    attacker:  {}\n",
            s.id, s.name, s.category, s.kind, s.corrupted_ptr, s.original_info, s.corrupted_info
        ));
    }
    out
}
