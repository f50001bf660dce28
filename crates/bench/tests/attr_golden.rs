//! Golden attribution profiles.
//!
//! Every `tests/corpus/*.mc` program, the first nbench and NGINX proxies
//! and a program whose check fails ([`PA_TRAP`]) run with attribution on
//! under STWC, STL and PARTS, at `--opt none` and `--opt ipo`, at the
//! default sampling period and at 256 cycles; the failing program runs
//! under the MAC table too. Each cell writes its whole [`AttrProfile`] — the function rows
//! with their inclusive histograms, the site rows, and the folded stacks —
//! one JSON line per row.
//!
//! Both accounting modes must print the golden text. The per-op reference
//! and the block pre-charge derive attribution through the same code, so
//! their parity alone cannot catch a wrong derivation; this table can.

use rsti_core::{Mechanism, OptLevel};
use rsti_ir::Module;
use rsti_telemetry::json;
use rsti_vm::{AttrProfile, Backend, ExecBackend, Image, Vm};
use std::fmt::Write;

const GOLDEN: &str = include_str!("attr_profiles.golden");

/// A corrupted function pointer fails its auth after a call mid-block:
/// the trapping check's signs and auths are the run's residual.
const PA_TRAP: &str = r#"
    struct obj { long pad; void (*fp)(); };
    struct obj* g;
    void benign() { print_int(1); }
    long helper(long x) { return x + 1; }
    int main() {
        g = (struct obj*) malloc(sizeof(struct obj));
        g->fp = benign;
        long n = helper(3);
        g->fp();
        long* raw = (long*) g;
        raw[1] = raw[1] + 8;
        n = helper(n);
        g->fp();
        return (int) n;
    }
"#;

/// The programs: the corpus in file-name order, the two proxies, then
/// [`PA_TRAP`].
fn programs() -> Vec<(String, Module)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("committed corpus")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    files.sort();
    let mut out: Vec<(String, Module)> = files
        .iter()
        .filter_map(|path| {
            let name = path.file_stem()?.to_string_lossy().into_owned();
            let src = std::fs::read_to_string(path).expect("corpus file");
            Some((name, rsti_frontend::compile(&src, "corpus").ok()?))
        })
        .collect();
    assert!(out.len() >= 10, "corpus went missing");
    for w in [&rsti_workloads::nbench()[0], &rsti_workloads::nginx()[0]] {
        out.push((w.name.to_string(), w.proxy_module()));
    }
    out.push((
        "pa_trap".to_string(),
        rsti_frontend::compile(PA_TRAP, "pa_trap").expect("compiles"),
    ));
    out
}

/// One profile as text: a header, then one line per function row, site
/// row and folded stack.
fn render(out: &mut String, cell: &str, p: &AttrProfile) {
    let _ = writeln!(out, "{cell} every={} samples={}", p.sample_every, p.samples);
    for f in &p.funcs {
        let row = json::object(|o| {
            o.field("name", &f.name)
                .field("calls", f.calls)
                .field("cycles", f.cycles)
                .field("insts", f.insts)
                .field("signs", f.pac_signs)
                .field("auths", f.pac_auths)
                .field("traps", f.traps)
                .field("pac_cycles", f.pac_cycles)
                .field("pp_cycles", f.pp_cycles)
                .field("incl", &f.incl);
        });
        let _ = writeln!(out, "  func {row}");
    }
    for s in &p.sites {
        let row = json::object(|o| {
            o.field("site", s.site.label())
                .field("kind", s.site.kind)
                .field("execs", s.execs)
                .field("cycles", s.cycles)
                .field("signs", s.signs)
                .field("auths", s.auths)
                .field("traps", s.traps);
        });
        let _ = writeln!(out, "  site {row}");
    }
    for line in p.folded_lines().lines() {
        let _ = writeln!(out, "  folded {line}");
    }
}

/// The whole table under accounting mode `exec`.
fn table(exec: ExecBackend) -> String {
    let mut out = String::new();
    for (name, m) in programs() {
        let backends: &[Backend] = match name.as_str() {
            "pa_trap" => &[Backend::PacInPointer, Backend::MacTable],
            _ => &[Backend::PacInPointer],
        };
        for &backend in backends {
            for mech in [Mechanism::Stwc, Mechanism::Stl, Mechanism::Parts] {
                for level in [OptLevel::None, OptLevel::Ipo] {
                    let img = Image::build(&m, mech, level)
                        .0
                        .with_backend(backend)
                        .with_exec(exec);
                    let sampled = [
                        ("default", img.clone().with_attr()),
                        ("256", img.with_attr_sampling(256)),
                    ];
                    for (every, img) in sampled {
                        let mut vm = Vm::new(&img);
                        vm.set_fuel(20_000_000);
                        let p = vm.run().attr.expect("attribution on");
                        let cell = format!(
                            "{name} {backend:?} {mech} {} sampling={every}",
                            level.label()
                        );
                        render(&mut out, &cell, &p);
                    }
                }
            }
        }
    }
    out
}

/// Panics with the first differing lines unless `got` equals the golden.
fn assert_golden(got: &str, what: &str) {
    if got == GOLDEN {
        return;
    }
    // The full table, for pasting into the golden file when a change is
    // intended (shown with `--nocapture`).
    println!("{got}");
    let diffs: Vec<String> = GOLDEN
        .lines()
        .zip(got.lines())
        .filter(|(a, b)| a != b)
        .take(10)
        .map(|(a, b)| format!("- {a}\n+ {b}"))
        .collect();
    panic!(
        "{what} drifted from attr_profiles.golden ({} vs {} lines); first differences:\n{}",
        GOLDEN.lines().count(),
        got.lines().count(),
        diffs.join("\n")
    );
}

#[test]
fn block_precharge_profiles_match_golden() {
    assert_golden(&table(ExecBackend::Compiled), "block pre-charge");
}

#[test]
fn per_op_reference_profiles_match_golden() {
    assert_golden(&table(ExecBackend::Interp), "per-op reference");
}
