//! The security-evaluation harness.
//!
//! Each Table 1 row becomes a [`Scenario`]: a MiniC victim whose pointer
//! scope-type relationships mirror the paper's table, plus a corruption
//! procedure using the VM's attacker API and a payload predicate. The
//! harness runs every scenario under no defense, PARTS, and the three RSTI
//! mechanisms, at any opt level, and *derives* the verdict from what
//! actually happens — the attack either achieves its goal, is detected by
//! an authentication trap, or crashes.

use rsti_core::{Mechanism, OptLevel};
use rsti_frontend::compile;
use rsti_ir::Module;
use rsti_vm::{ExecBackend, ExecResult, Image, Incident, RunStop, Status, Trap, Vm};
use std::fmt::{self, Write};

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

impl Corruption {
    /// Performs the corruption on a paused victim.
    ///
    /// # Errors
    /// Says why an address did not resolve or an access was refused.
    pub fn apply(&self, vm: &mut Vm) -> Result<(), String> {
        const UNRESOLVED: &str = "corruption addresses did not resolve";
        match self {
            Corruption::RawWrite { dest, value } => {
                let (d, v) = dest(vm).zip(value(vm)).ok_or(UNRESOLVED)?;
                vm.attacker_write_u64(d, v).map_err(|e| e.to_string())
            }
            Corruption::Replay { src, dest } => {
                let (sa, da) = src(vm).zip(dest(vm)).ok_or(UNRESOLVED)?;
                let bytes = vm.attacker_read(sa, 8).map_err(|e| e.to_string())?;
                vm.attacker_write(da, &bytes).map_err(|e| e.to_string())
            }
        }
    }
}

/// A corruption of a paused victim; `Err` says why it did not resolve.
type Corrupt<'a> = Box<dyn Fn(&mut Vm) -> Result<(), String> + 'a>;

/// A victim compiled once — a Table 1 [`Scenario`] or a Table 2
/// [`Probe`](crate::capability::Probe) — from which every cell builds.
pub struct Victim<'a> {
    /// Row id.
    pub id: &'static str,
    pub(crate) module: Result<Module, String>,
    pub(crate) pause_at: &'static str,
    pub(crate) corrupt: Corrupt<'a>,
    pub(crate) payload_check: fn(&ExecResult) -> bool,
}

/// Compiles a victim's source; `Err` makes its every cell inconclusive.
pub(crate) fn compile_victim(source: &str, id: &str) -> Result<Module, String> {
    compile(source, id).map_err(|e| format!("victim does not compile: {e}"))
}

impl<'a> Victim<'a> {
    /// Compiles a Table 1 scenario.
    pub fn scenario(s: &'a Scenario) -> Self {
        Victim {
            id: s.id,
            module: compile_victim(s.source, s.id),
            pause_at: s.pause_at,
            corrupt: Box::new(|vm| s.corruption.apply(vm)),
            payload_check: s.payload_check,
        }
    }

    /// The one attack driver. Builds the cell with [`Image::build`], the
    /// recipe Fig. 9's cells use, in accounting mode `exec`, with the
    /// flight recorder when `record`. With `attack` it runs to the
    /// pause scope and corrupts; then it finishes and derives the verdict.
    fn run(
        &self,
        defense: Option<Mechanism>,
        level: OptLevel,
        exec: ExecBackend,
        record: bool,
        attack: bool,
    ) -> (Verdict, Option<Box<Incident>>) {
        let inconclusive = |why: String| (Verdict::Inconclusive(why), None);
        let m = match &self.module {
            Ok(m) => m,
            Err(e) => return inconclusive(e.clone()),
        };
        let img = Image::build(m, defense, level).0.with_exec(exec);
        let img = if record { img.with_record() } else { img };
        let mut vm = Vm::new(&img);
        if attack {
            if let RunStop::Done(st) = vm.run_to_function(self.pause_at) {
                return inconclusive(format!("victim never reached {}: {st:?}", self.pause_at));
            }
            if let Err(e) = (self.corrupt)(&mut vm) {
                return inconclusive(e);
            }
        }
        let r = vm.finish();
        let verdict = match r.status {
            _ if (self.payload_check)(&r) => Verdict::PayloadExecuted,
            Status::Exited(_) => Verdict::Survived,
            Status::Trapped(t) if t.is_detection() => Verdict::Detected(t),
            Status::Trapped(t) => Verdict::Crashed(t),
        };
        (verdict, r.incident)
    }

    /// Attacks the victim under `defense` at `level` and derives the
    /// verdict. With `record`, a detection also yields the forensic
    /// [`Incident`] (failing check site, expected-vs-presented modifier,
    /// sign-site lineage, event window), bit-identical in both accounting
    /// modes.
    pub fn attack(
        &self,
        defense: Option<Mechanism>,
        level: OptLevel,
        exec: ExecBackend,
        record: bool,
    ) -> (Verdict, Option<Box<Incident>>) {
        self.run(defense, level, exec, record, true)
    }

    /// Sanity check: the same build, run *without* an attack, must exit
    /// cleanly without firing the payload.
    pub fn check_benign(
        &self,
        defense: Option<Mechanism>,
        level: OptLevel,
        exec: ExecBackend,
    ) -> Result<(), String> {
        match self.run(defense, level, exec, false, false).0 {
            Verdict::Survived => Ok(()),
            v => Err(format!("unattacked run: {} ({v:?})", v.label())),
        }
    }
}

/// Runs one scenario under one defense, unoptimized, in the default
/// accounting mode, and derives the verdict.
pub fn evaluate(s: &Scenario, defense: Option<Mechanism>) -> Verdict {
    evaluate_at(s, defense, OptLevel::None, ExecBackend::default(), false).0
}

/// Runs one scenario under one defense at opt level `level` in accounting
/// mode `exec`, optionally with the flight recorder (see
/// [`Victim::attack`]).
pub fn evaluate_at(
    s: &Scenario,
    defense: Option<Mechanism>,
    level: OptLevel,
    exec: ExecBackend,
    record: bool,
) -> (Verdict, Option<Box<Incident>>) {
    Victim::scenario(s).attack(defense, level, exec, record)
}

/// One row of an evaluation matrix.
pub struct MatrixRow {
    /// Victim id.
    pub id: &'static str,
    /// Verdicts in [`DEFENSES`] order.
    pub verdicts: Vec<Verdict>,
}

/// Attacks every unoptimized victim under every defense in [`DEFENSES`]
/// in the default accounting mode.
pub fn run_matrix(victims: &[Victim]) -> Vec<MatrixRow> {
    let attack = |v: &Victim, d| v.attack(d, OptLevel::None, ExecBackend::default(), false).0;
    victims
        .iter()
        .map(|v| MatrixRow { id: v.id, verdicts: DEFENSES.iter().map(|&d| attack(v, d)).collect() })
        .collect()
}

/// Appends a verdict grid: a header row naming the id column `first`, then
/// one row per victim with cells labelled by `label`. `widths` are the id
/// column's and each mechanism column's.
pub(crate) fn render_grid(
    out: &mut String,
    first: &str,
    (w, c): (usize, usize),
    matrix: &[MatrixRow],
    label: fn(&Verdict) -> &'static str,
) {
    let header = vec![first, "no defense", "PARTS", "STC", "STWC", "STL"];
    let rows = matrix
        .iter()
        .map(|r| [r.id].into_iter().chain(r.verdicts.iter().map(label)).collect());
    for l in std::iter::once(header).chain(rows) {
        let _ = writeln!(
            out,
            "{:<w$} {:>12} {:>c$} {:>c$} {:>c$} {:>c$}",
            l[0], l[1], l[2], l[3], l[4], l[5]
        );
    }
}

/// Renders the Table 1 report.
pub fn render_table1(scenarios: &[Scenario], matrix: &[MatrixRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1 reproduction: real and synthesized exploits vs. defenses\n\
         (paper: all rows detected by RSTI; PARTS misses same-basic-type\n\
         substitutions such as DOP ProFTPd and PittyPat)\n\n",
    );
    render_grid(&mut out, "attack", (22, 10), matrix, Verdict::label);
    out.push('\n');
    for s in scenarios {
        out.push_str(&format!(
            "{:<22} [{}] {} ({:?})\n    corrupted: {}\n    original:  {}\n    attacker:  {}\n",
            s.id, s.name, s.category, s.kind, s.corrupted_ptr, s.original_info, s.corrupted_info
        ));
    }
    out
}
