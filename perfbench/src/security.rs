//! The Table-1 security check: 12 scenarios x 3 RSTI mechanisms x {cfg,
//! ipo}, run on *optimized* images through the public attacker API of
//! `rsti-vm` (`run_to_function`, `attacker_write*`, `finish`), the way
//! `rsti_attacks::harness::evaluate_with_record` drives unoptimized ones.
//!
//! `fig9-sweep` times these cells as part of its sweep; the other
//! workloads run every cell once after their measurement window, so each
//! run reports the security verdict beside its speed.

use crate::layers::{LEVELS, MECHS};
use crate::trace::Tracer;
use crate::Metrics;
use rsti_attacks::{Corruption, Scenario, Verdict};
use rsti_ir::Module;
use rsti_vm::{Image, RunStop, Status, Vm};

/// Table-1 victims; `None` when a victim does not compile (its cells are
/// then inconclusive, as in the attack harness).
pub type Victims = Vec<(Scenario, Option<Module>)>;

pub fn victims() -> Victims {
    rsti_attacks::scenarios::all()
        .into_iter()
        .map(|s| {
            let m = rsti_frontend::compile(s.source, s.id).ok();
            (s, m)
        })
        .collect()
}

/// Verdict counts per level (cfg, ipo).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cells {
    pub detected: [u64; 2],
    pub inconclusive: [u64; 2],
}

impl Cells {
    pub fn add(&mut self, o: &Cells) {
        for li in 0..LEVELS.len() {
            self.detected[li] += o.detected[li];
            self.inconclusive[li] += o.inconclusive[li];
        }
    }

    /// `attacks_detected`: detected cells over both levels.
    pub fn put_e2e(&self, m: &mut Metrics) {
        m.put(
            "attacks_detected",
            self.detected.iter().sum::<u64>() as f64,
            "count",
        );
    }

    /// `attacks.{detected,inconclusive}.<level>`.
    pub fn put_layers(&self, m: &mut Metrics) {
        for (li, level) in LEVELS.iter().enumerate() {
            let l = level.label();
            m.put(
                format!("attacks.detected.{l}"),
                self.detected[li] as f64,
                "count",
            );
            m.put(
                format!("attacks.inconclusive.{l}"),
                self.inconclusive[li] as f64,
                "count",
            );
        }
    }
}

/// The three cells of one victim at level `LEVELS[li]`.
pub fn cells(scenario: &Scenario, module: Option<&Module>, li: usize, t: &mut Tracer) -> Cells {
    let mut c = Cells::default();
    for mech in MECHS {
        let verdict = match module {
            None => Verdict::Inconclusive("victim does not compile".into()),
            Some(m) => {
                let mut prog = t.time("core.instrument", || rsti_core::instrument(m, mech));
                t.time("core.optimize", || {
                    rsti_core::optimize_program_at(&mut prog, LEVELS[li])
                });
                let img = Image::from_instrumented_owned(prog);
                t.time("attacks.cell", || attack(scenario, &img))
            }
        };
        match verdict {
            Verdict::Detected(_) => c.detected[li] += 1,
            Verdict::Inconclusive(_) => c.inconclusive[li] += 1,
            _ => {}
        }
    }
    c
}

/// Every cell once: compiles the victims, then runs all 72 cells.
pub fn check() -> (Cells, u64) {
    let v = victims();
    let mut t = Tracer::new(false);
    let mut all = Cells::default();
    for li in 0..LEVELS.len() {
        for (s, m) in &v {
            all.add(&cells(s, m.as_ref(), li, &mut t));
        }
    }
    (all, (v.len() * MECHS.len() * LEVELS.len()) as u64)
}

/// One Table-1 cell on an optimized image.
fn attack(s: &Scenario, img: &Image) -> Verdict {
    let mut vm = Vm::new(img);
    if let RunStop::Done(st) = vm.run_to_function(s.pause_at) {
        return Verdict::Inconclusive(format!("victim never reached {}: {st:?}", s.pause_at));
    }
    let err = match &s.corruption {
        Corruption::RawWrite { dest, value } => match (dest(&vm), value(&vm)) {
            (Some(d), Some(v)) => vm.attacker_write_u64(d, v).err().map(|e| e.to_string()),
            _ => Some("corruption addresses did not resolve".into()),
        },
        Corruption::Replay { src, dest } => match (src(&vm), dest(&vm)) {
            (Some(sa), Some(da)) => match vm.attacker_read(sa, 8) {
                Ok(bytes) => vm.attacker_write(da, &bytes).err().map(|e| e.to_string()),
                Err(e) => Some(e.to_string()),
            },
            _ => Some("corruption addresses did not resolve".into()),
        },
    };
    if let Some(e) = err {
        return Verdict::Inconclusive(e);
    }
    let r = vm.finish();
    if (s.payload_check)(&r) {
        return Verdict::PayloadExecuted;
    }
    match r.status {
        Status::Exited(_) => Verdict::Survived,
        Status::Trapped(t) if t.is_detection() => Verdict::Detected(t),
        Status::Trapped(t) => Verdict::Crashed(t),
    }
}
