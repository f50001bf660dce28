//! # rsti-cli — the `rsti` command-line driver
//!
//! A small front door over the whole pipeline:
//!
//! ```text
//! rsti run <file.mc> [--mech stwc|stc|stl|parts|none|adaptive]
//!                    [--backend pac|mac|interp|compiled]
//!                    [--opt none|block|cfg|ipo] [--stats] [--trace out.jsonl]
//! rsti profile <file.mc> [--mech ...] [--backend ...] [--opt none|block|cfg|ipo]
//!                        [--attr] [--top N] [--flame out.folded] [--chrome out.json]
//!                        [--trace out.jsonl]
//! rsti analyze <file.mc> [--mech stwc|stc|stl|parts]
//! rsti instrument <file.mc> [--mech ...]        # dump instrumented IR
//! rsti equivalence <file.mc>                    # Table 3 row for a file
//! rsti fuzz [--seeds N] [--start S] [--attr] [--record] [--minimize] [--corpus DIR]
//! rsti explain <file.mc> | --attack <id> [--mech ...] [--backend ...] [--json]
//! ```
//!
//! `profile --attr` turns on the deterministic attribution profiler:
//! per-function exclusive cycle/instruction/check accounting, per-site
//! check stats, and sampled call paths. `--flame` writes the folded
//! stacks (inferno/flamegraph.pl input); `--chrome` writes a Chrome
//! `chrome://tracing` / Perfetto trace of the pipeline phases.
//!
//! `fuzz` runs the differential campaign from `rsti-fuzz`: every seed's
//! program must behave identically under the baseline and every
//! `mechanism × optimization` configuration, verify at every pass boundary,
//! and never panic. Failures are delta-debugged with `--minimize` and
//! written as `.mc` repros with `--corpus DIR`; the process exits nonzero
//! if any oracle was violated.
//!
//! `explain` arms the pointer-provenance flight recorder and renders the
//! forensic incident report for the first RSTI detection trap: the failing
//! check site, the expected-vs-presented modifier and key, the sign-site
//! lineage of the authenticated value, a scope timeline, and the last-K
//! event window (`--json` for the structured form). `--attack <id>` runs a
//! Table 1 scenario from `rsti-attacks` instead of a file, built at the
//! `--opt` level like a file; `run`,
//! `profile`, and `fuzz` accept `--record` to arm the same recorder.
//!
//! `--trace <path>` (or the `RSTI_TRACE` env var) turns the global
//! telemetry collector on and streams JSONL events — phase spans, counter
//! deltas, violation audit records, end-of-run summaries — to the path.
//! `profile` always collects and prints the per-phase wall-time and
//! counter tables.
//!
//! An error prints the usage text only when it is a usage mistake (an
//! unknown command or flag value, a missing input file); a well-formed
//! command that fails, such as a compile error, prints its one `error:`
//! line alone.
//!
//! The command logic lives here (testable); `main.rs` only forwards
//! `std::env::args`.

#![warn(missing_docs)]

use rsti_core::{MechChoice, Mechanism, OptLevel};
use rsti_telemetry::ToJson;
use rsti_vm::{ExecResult, Image, Status, Vm};
use std::fmt::Write as _;

/// Runs the CLI; returns (exit code, output text).
pub fn run_cli(args: &[String]) -> (i32, String) {
    // `fuzz` and `serve` own their exit codes (`fuzz` is nonzero on oracle
    // violations; `serve` streams its responses to stdout while running);
    // `explain` may take `--attack <id>` instead of an input file.
    let result = match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(args),
        Some("explain") => cmd_explain(args).map(|out| (0, out)),
        Some("serve") => cmd_serve(args),
        _ => dispatch(args).map(|out| (0, out)),
    };
    match result {
        Ok(r) => r,
        Err(CliError::Usage(e)) => (1, format!("error: {e}\n{USAGE}")),
        Err(CliError::Failed(e)) => (1, format!("error: {e}\n")),
    }
}

/// Why a command failed. Bare `String` errors from the flag parsers are
/// usage mistakes; a well-formed command that fails says so with
/// [`CliError::Failed`].
enum CliError {
    /// An unknown command or flag value, or a missing input file: printed
    /// with the usage text.
    Usage(String),
    /// A well-formed command that failed (a compile error, an I/O error):
    /// printed alone.
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Usage(e)
    }
}

impl From<&str> for CliError {
    fn from(e: &str) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// Compiles `src` (read from `file`); a compile error is a failure of a
/// well-formed command, not a usage mistake.
fn compile_source(src: &str, file: &str) -> Result<rsti_ir::Module, CliError> {
    rsti_frontend::compile(src, file).map_err(|e| CliError::Failed(e.to_string()))
}

/// Turns the global telemetry collector on with a JSONL sink at `path`.
fn open_trace(path: &str) -> Result<(), CliError> {
    let tel = rsti_telemetry::global();
    tel.enable();
    tel.set_sink_path(path)
        .map_err(|e| CliError::Failed(format!("cannot open trace file `{path}`: {e}")))
}

/// Writes an output file a command was asked for.
fn write_output(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Failed(format!("cannot write `{path}`: {e}")))
}

/// The `fuzz` subcommand: a bounded differential campaign.
///
/// # Errors
/// Returns usage errors (bad flag values); oracle violations are *not*
/// errors — they are reported in the output with exit code 1.
fn cmd_fuzz(args: &[String]) -> Result<(i32, String), CliError> {
    if let Some(path) = flag_value(args, "--trace") {
        open_trace(path)?;
    } else {
        rsti_telemetry::global().init_from_env();
    }

    let parse_u64 = |flag: &str, default: u64| -> Result<u64, String> {
        match flag_value(args, flag) {
            Some(s) => s.parse().map_err(|_| format!("bad {flag} value `{s}`")),
            None => Ok(default),
        }
    };
    // The campaign cross-checks block pre-charge against the per-op
    // reference by default; `--backend interp` opts out. (The oracle runs
    // every instrumented cell under both enforcement backends and compares
    // them, so `pac`/`mac` are accepted but irrelevant.)
    let (_enforce, exec) = parse_backends(args)?;
    let cfg = rsti_fuzz::FuzzConfig {
        start: parse_u64("--start", 0)?,
        seeds: parse_u64("--seeds", 100)?,
        minimize: args.iter().any(|a| a == "--minimize"),
        exec_oracle: exec != Some(rsti_vm::ExecBackend::Interp),
        // `--attr` runs every oracle VM with the attribution profiler on:
        // the verdicts must not change (inertness), and the exec oracle
        // then also diffs the engines' profiles on every generated program.
        attr: args.iter().any(|a| a == "--attr"),
        // `--record` arms the flight recorder on every oracle VM: verdicts
        // must not change, and the exec oracle then also diffs the
        // engines' synthesized incidents bit-for-bit on every program.
        record: args.iter().any(|a| a == "--record"),
        ..Default::default()
    };
    let corpus_dir = flag_value(args, "--corpus");

    let report = rsti_fuzz::run_campaign(&cfg);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fuzz: {} seed(s) from {}, {} oracle violation(s)",
        report.seeds_run,
        cfg.start,
        report.failures.len()
    );
    for f in &report.failures {
        let _ = writeln!(out, "seed {}: {}", f.seed, f.kind);
        if let Some(min) = &f.minimized {
            let _ = writeln!(
                out,
                "  minimized to {} line(s) in {} oracle run(s)",
                min.lines().count(),
                f.attempts
            );
        }
        if let Some(dir) = corpus_dir {
            let name = format!("seed_{:06}", f.seed);
            let src = f.minimized.as_deref().unwrap_or(&f.source);
            match rsti_fuzz::corpus::write_repro(
                std::path::Path::new(dir),
                &name,
                f.seed,
                &f.kind.class_key(),
                src,
            ) {
                Ok(p) => {
                    let _ = writeln!(out, "  repro written: {}", p.display());
                }
                Err(e) => {
                    let _ = writeln!(out, "  cannot write repro: {e}");
                }
            }
        }
    }
    Ok((if report.clean() { 0 } else { 1 }, out))
}

/// Parses the `serve` flags into a server config plus the output options
/// (`--socket`, `--stats-out`, `--trace`). Split from `cmd_serve` so the
/// flag grammar is unit-testable without touching stdin.
///
/// # Errors
/// Returns a message for unparsable numeric flag values.
pub fn parse_serve_config(
    args: &[String],
) -> Result<(rsti_serve::ServeConfig, ServeOptions), String> {
    let parse_usize = |flag: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, flag) {
            Some(s) => s.parse().map_err(|_| format!("bad {flag} value `{s}`")),
            None => Ok(default),
        }
    };
    let defaults = rsti_serve::ServeConfig::default();
    let fuel = match flag_value(args, "--fuel") {
        Some(s) => s.parse().map_err(|_| format!("bad --fuel value `{s}`"))?,
        None => defaults.fuel,
    };
    let cfg = rsti_serve::ServeConfig {
        workers: parse_usize("--workers", defaults.workers)?.max(1),
        cache_cap: parse_usize("--cache-cap", defaults.cache_cap)?,
        fuel,
    };
    let opts = ServeOptions {
        socket: flag_value(args, "--socket").map(str::to_owned),
        stats_out: flag_value(args, "--stats-out").map(str::to_owned),
        trace: flag_value(args, "--trace").map(str::to_owned),
    };
    Ok((cfg, opts))
}

/// Output-side `serve` options (everything that is not a [`rsti_serve::ServeConfig`]
/// tunable).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Accept connections on this Unix socket instead of stdin/stdout.
    pub socket: Option<String>,
    /// Write the final stats snapshot (the `{\"cmd\":\"stats\"}` payload)
    /// to this file on exit.
    pub stats_out: Option<String>,
    /// Enable telemetry with this JSONL sink.
    pub trace: Option<String>,
}

/// The `serve` subcommand: a persistent instrumentation-and-execution
/// service over stdin-JSONL or a Unix socket (see `rsti-serve`).
/// Responses stream to stdout as they complete; the returned string only
/// carries the final one-line summary (stderr gets it too, so piping
/// stdout stays pure JSONL).
///
/// # Errors
/// Returns usage errors. Fatal I/O errors (bind/accept failures, a broken
/// stdin or stdout) exit 1 with the error alone: they are not usage
/// mistakes.
fn cmd_serve(args: &[String]) -> Result<(i32, String), CliError> {
    let (cfg, opts) = parse_serve_config(args)?;
    if let Some(path) = &opts.trace {
        open_trace(path)?;
    } else {
        rsti_telemetry::global().init_from_env();
    }
    let server = rsti_serve::Server::new(cfg);
    let served = if let Some(path) = &opts.socket {
        #[cfg(not(unix))]
        return Err(format!("--socket is only supported on unix (got `{path}`)").into());
        #[cfg(unix)]
        rsti_serve::serve_socket(&server, std::path::Path::new(path))
            .map_err(|e| format!("serve socket `{path}`: {e}"))
    } else {
        let stdin = std::io::stdin();
        rsti_serve::serve_lines(&server, stdin.lock(), std::io::stdout())
            .map_err(|e| format!("serve I/O: {e}"))
    };
    served.map_err(CliError::Failed)?;
    if let Some(path) = &opts.stats_out {
        write_output(path, server.stats_json())?;
    }
    let m = server.metrics();
    let summary = format!(
        "serve: {} request(s), {} hit(s), {} miss(es), {} eviction(s), {} error(s)\n",
        m.requests(),
        m.hits(),
        m.misses(),
        m.evictions(),
        m.errors()
    );
    eprint!("{summary}");
    Ok((0, String::new()))
}

const USAGE: &str = "\
usage:
  rsti run <file.mc> [--mech stwc|stc|stl|parts|none|adaptive] [--backend pac|mac|interp|compiled] [--opt none|block|cfg|ipo] [--record] [--stats] [--trace out.jsonl]
  rsti profile <file.mc> [--mech stwc|stc|stl|parts|none|adaptive] [--backend pac|mac|interp|compiled] [--opt none|block|cfg|ipo] [--attr] [--record] [--top N] [--flame out.folded] [--chrome out.json] [--trace out.jsonl]

  --backend selects the enforcement scheme (pac|mac) or the driver's
  accounting mode: compiled (block pre-charge, the default) or interp
  (per-op reference accounting, same results); repeat the flag to set
  both axes.
  profile --attr adds per-function/per-check-site attribution tables;
  --flame writes folded call stacks (flamegraph.pl input, needs --attr);
  --chrome writes a Chrome/Perfetto trace of the pipeline phases.
  rsti explain <file.mc> [--mech stwc|stc|stl|parts|none|adaptive] [--backend pac|mac|interp|compiled] [--opt none|block|cfg|ipo] [--json]
  rsti explain --attack <scenario-id> [--mech stwc|stc|stl|parts|none] [--backend interp|compiled] [--opt none|block|cfg|ipo] [--json]

  explain arms the pointer-provenance flight recorder and renders the
  forensic incident report for the first RSTI detection trap: failing
  check site, expected vs presented modifier/key, sign-site lineage,
  scope timeline, and the last-K event window (--json for the structured
  form). --attack runs a Table 1 scenario instead of a file, built at the
  --opt level. run, profile, and fuzz accept --record to arm the same
  recorder on their runs.
  rsti analyze <file.mc> [--mech stwc|stc|stl|parts]
  rsti instrument <file.mc> [--mech stwc|stc|stl|parts]
  rsti equivalence <file.mc>
  rsti fuzz [--seeds N] [--start S] [--backend interp|compiled] [--attr] [--record] [--minimize] [--corpus DIR] [--trace out.jsonl]

  fuzz cross-checks block pre-charge (compiled) against per-op reference
  accounting (interp) on every run; --backend interp opts out (reference-
  only campaign). --attr runs every oracle VM with the attribution
  profiler on (verdicts must not change; both modes' profiles must
  agree). --record likewise arms the flight recorder everywhere and diffs
  the two modes' incidents.
  rsti serve [--workers N] [--cache-cap N] [--fuel N] [--socket PATH] [--stats-out FILE] [--trace out.jsonl]

  serve reads JSONL requests from stdin (one JSON object per line, e.g.
  {\"id\":1,\"cmd\":\"run\",\"source\":\"int main() { return 0; }\",
  \"mech\":\"stwc\",\"opt\":\"cfg\",\"exec\":\"compiled\",\"enforce\":\"pac\"})
  and answers one JSON line per request, in input order, on stdout.
  Instrumented modules (and their compiled closures) are cached in an LRU
  keyed by hash(source, mech, opt, enforce), shared by --workers
  threads; cmd is run|compile|profile|explain|stats|shutdown, and source
  may be replaced by a workload name (\"workload\":\"numeric sort\").
  --socket serves the same protocol on a Unix socket; --stats-out writes
  the final counter/latency snapshot as JSON on exit.
  RSTI_TRACE=<path> in the environment is equivalent to --trace <path>.
";

/// Mechanism names the usage string offers for `--mech` (kept in sync by
/// a unit test).
pub const USAGE_MECHS: [&str; 6] = ["stwc", "stc", "stl", "parts", "none", "adaptive"];

/// Backend names the usage string offers for `--backend`: two enforcement
/// schemes and two execution engines (kept in sync by a unit test).
pub const USAGE_BACKENDS: [&str; 4] = ["pac", "mac", "interp", "compiled"];

/// Reads a source file within the budget `serve` puts on a request line
/// ([`rsti_serve::MAX_LINE_BYTES`]): a larger file is refused before it is
/// read, and a file that grows (or a device that never ends) is read no
/// further than one byte past the budget.
fn read_source(path: &str) -> Result<String, CliError> {
    use std::io::Read;
    let unreadable = |e: std::io::Error| CliError::Usage(format!("cannot read `{path}`: {e}"));
    let budget = rsti_serve::MAX_LINE_BYTES as u64;
    let too_big = || CliError::Failed(format!("`{path}` exceeds {budget} bytes"));
    let file = std::fs::File::open(path).map_err(unreadable)?;
    if file.metadata().map_err(unreadable)?.len() > budget {
        return Err(too_big());
    }
    let mut src = String::new();
    file.take(budget + 1).read_to_string(&mut src).map_err(unreadable)?;
    if src.len() as u64 > budget {
        return Err(too_big());
    }
    Ok(src)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Resolves the optimization level from `--opt none|block|cfg|ipo`; the
/// default is unoptimized.
///
/// # Errors
/// Returns a message for unknown level names.
pub fn parse_opt_level(args: &[String]) -> Result<OptLevel, String> {
    flag_value(args, "--opt").map_or(Ok(OptLevel::None), OptLevel::parse)
}

/// Splits every `--backend` occurrence onto the two axes the flag selects:
/// the enforcement scheme (`pac`|`mac` — how signatures are stored) and the
/// accounting mode (`interp`|`compiled` — per-op or block pre-charge). The
/// flag may be given once per axis; `None` on either axis means the caller's
/// default (PAC-in-pointer; block pre-charge for `run`/`profile`/`explain`,
/// the cross-checking differential pair for `fuzz`).
///
/// # Errors
/// Returns a message for unknown names, a missing value, or a repeated
/// choice on the same axis.
pub fn parse_backends(
    args: &[String],
) -> Result<(Option<rsti_vm::Backend>, Option<rsti_vm::ExecBackend>), String> {
    let mut enforce: Option<rsti_vm::Backend> = None;
    let mut exec: Option<rsti_vm::ExecBackend> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] != "--backend" {
            i += 1;
            continue;
        }
        let v = args
            .get(i + 1)
            .ok_or("--backend needs a value (pac|mac|interp|compiled)")?;
        match v.as_str() {
            "pac" | "mac" => {
                let b = if v == "mac" { rsti_vm::Backend::MacTable } else { rsti_vm::Backend::PacInPointer };
                if enforce.replace(b).is_some() {
                    return Err(format!("enforcement backend given twice (`--backend {v}`)"));
                }
            }
            "interp" | "compiled" => {
                let e = if v == "compiled" { rsti_vm::ExecBackend::Compiled } else { rsti_vm::ExecBackend::Interp };
                if exec.replace(e).is_some() {
                    return Err(format!("execution backend given twice (`--backend {v}`)"));
                }
            }
            other => return Err(format!("unknown backend `{other}` (pac|mac|interp|compiled)")),
        }
        i += 2;
    }
    Ok((enforce, exec))
}

fn apply_backend(img: Image, args: &[String]) -> Result<Image, String> {
    let (enforce, exec) = parse_backends(args)?;
    Ok(img
        .with_backend(enforce.unwrap_or(rsti_vm::Backend::PacInPointer))
        .with_exec(exec.unwrap_or_default()))
}

fn render_audit(out: &mut String, r: &ExecResult) {
    for rec in &r.audit {
        let _ = writeln!(
            out,
            "violation: {} {} at {} in {}:{} (modifier {:#018x}): {}",
            rec.mechanism, rec.inst, rec.site, rec.func, rec.line, rec.modifier, rec.detail
        );
    }
}

/// `--top N` (default 10): how many rows the attribution tables show.
fn parse_top(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--top") {
        Some(s) => s.parse().map_err(|_| format!("bad --top value `{s}`")),
        None => Ok(10),
    }
}

/// Renders the per-function and per-check-site attribution tables.
fn render_attr_tables(out: &mut String, p: &rsti_vm::AttrProfile, top: usize) {
    let _ = writeln!(
        out,
        "attribution: sampling every {} cycles, {} call-stack sample(s)",
        p.sample_every, p.samples
    );
    let _ = writeln!(out, "top functions by exclusive cycles:");
    let _ = writeln!(
        out,
        "  {:<24} {:>8} {:>12} {:>12} {:>8} {:>10} {:>8} {:>6}",
        "function", "calls", "cycles", "insts", "auths", "pac-cyc", "pp-cyc", "chk%"
    );
    for &i in p.ranked_funcs().iter().take(top) {
        let f = &p.funcs[i];
        let chk = f.pac_cycles + f.pp_cycles;
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>12} {:>12} {:>8} {:>10} {:>8} {:>5.1}%",
            f.name,
            f.calls,
            f.cycles,
            f.insts,
            f.pac_auths,
            f.pac_cycles,
            f.pp_cycles,
            chk as f64 / f.cycles.max(1) as f64 * 100.0
        );
    }
    let mut sites: Vec<&rsti_vm::SiteAttr> = p.sites.iter().filter(|s| s.execs > 0).collect();
    sites.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.site.id.cmp(&b.site.id)));
    if !sites.is_empty() {
        let _ = writeln!(out, "top check sites by cycles:");
        let _ = writeln!(
            out,
            "  {:<28} {:<12} {:>5} {:>10} {:>10} {:>8} {:>8}",
            "site", "kind", "line", "execs", "cycles", "signs", "auths"
        );
        for s in sites.iter().take(top) {
            let _ = writeln!(
                out,
                "  {:<28} {:<12} {:>5} {:>10} {:>10} {:>8} {:>8}",
                s.site.label(),
                s.site.kind,
                s.site.line,
                s.execs,
                s.cycles,
                s.signs,
                s.auths
            );
        }
    }
}

/// The `explain` subcommand: runs a program — or a Table 1 attack scenario
/// with `--attack <id>` — with the flight recorder armed and renders the
/// forensic incident report for the first RSTI detection trap, or says why
/// there is nothing to explain. `--json` emits the structured incident.
///
/// # Errors
/// Returns usage errors: unknown attack id or flag values, a missing or
/// unreadable input, or `--mech adaptive` or `--backend pac|mac` combined
/// with `--attack`.
fn cmd_explain(args: &[String]) -> Result<String, CliError> {
    let (enforce, exec) = parse_backends(args)?;
    let choice = flag_value(args, "--mech")
        .map(MechChoice::parse)
        .transpose()?
        .unwrap_or(MechChoice::Fixed(Mechanism::Stwc));
    let level = parse_opt_level(args)?;
    // The header over an incident, the line that says there is none, and
    // the incident.
    let (found, nothing, incident) = if let Some(id) = flag_value(args, "--attack") {
        if enforce.is_some() || choice == MechChoice::Adaptive {
            return Err("--attack runs Table 1's defenses (--mech none|parts|stc|stwc|stl) \
                        under the harness's enforcement (--backend interp|compiled picks \
                        the engine); adaptive, pac and mac do not combine with it"
                .into());
        }
        let all: Vec<rsti_attacks::Scenario> = rsti_attacks::scenarios::all()
            .into_iter()
            .chain(rsti_attacks::scenarios::extras())
            .collect();
        let s = all.iter().find(|s| s.id == id).ok_or_else(|| {
            let ids: Vec<&str> = all.iter().map(|s| s.id).collect();
            format!("unknown attack `{id}`; one of: {}", ids.join(", "))
        })?;
        let (mech, engine) = (choice.mechanism(), exec.unwrap_or_default());
        let (verdict, inc) = rsti_attacks::evaluate_at(s, mech, level, engine, true);
        let head = format!(
            "explain: attack `{}` under {} ({} engine, opt {}): {}",
            s.id,
            rsti_attacks::defense_name(mech),
            engine.label(),
            level.label(),
            verdict.label()
        );
        let nothing = format!("{head} — no detection trap, so there is no incident to explain");
        (head, nothing, inc)
    } else {
        let file = args
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .ok_or("explain needs <file.mc> or --attack <scenario-id>")?;
        let module = compile_source(&read_source(file)?, file)?;
        let (img, _stats) = Image::build(&module, choice, level);
        let img = apply_backend(img, args)?.with_record();
        let r = Vm::new(&img).run();
        let status = match &r.status {
            Status::Exited(c) => format!("exit {c}"),
            Status::Trapped(t) => format!("trap {t}"),
        };
        let head = format!("explain: {file} (mech {})", choice.name());
        let nothing = format!("{head}: no RSTI detection trap ({status}) — nothing to explain");
        (head, nothing, r.incident)
    };
    Ok(match incident {
        Some(inc) if args.iter().any(|a| a == "--json") => format!("{}\n", inc.to_json()),
        Some(inc) => format!("{found}\n{}", inc.render_text()),
        None => format!("{nothing}\n"),
    })
}

/// The commands [`dispatch`] runs, each on one `<file.mc>`.
const FILE_COMMANDS: [&str; 5] = ["run", "profile", "analyze", "instrument", "equivalence"];

fn dispatch(args: &[String]) -> Result<String, CliError> {
    let cmd = args.first().ok_or("missing command")?;
    if !FILE_COMMANDS.contains(&cmd.as_str()) {
        return Err(format!("unknown command `{cmd}`").into());
    }
    let file = args.get(1).ok_or("missing <file.mc>")?;

    // Telemetry setup precedes compilation so the parse/lower spans of
    // this very invocation land in the snapshot.
    let tel = rsti_telemetry::global();
    let profiling = cmd == "profile";
    if profiling {
        tel.reset();
        tel.enable();
    }
    let tracing = if let Some(path) = flag_value(args, "--trace") {
        open_trace(path)?;
        true
    } else {
        tel.init_from_env()
    };

    let module = compile_source(&read_source(file)?, file)?;
    let choice = match flag_value(args, "--mech") {
        Some(s) => MechChoice::parse(s)?,
        None => MechChoice::Fixed(Mechanism::Stwc),
    };
    let mech = choice.mechanism();

    match cmd.as_str() {
        "run" => {
            let mut out = String::new();
            let level = parse_opt_level(args)?;
            let (img, stats) = Image::build(&module, choice, level);
            let mut img = apply_backend(img, args)?;
            if args.iter().any(|a| a == "--record") {
                img = img.with_record();
            }
            let mut vm = Vm::new(&img);
            let r = vm.run();
            for line in &r.output {
                let _ = writeln!(out, "{line}");
            }
            for e in &r.events {
                let _ = writeln!(out, "[extern{}] {}({})",
                    if e.critical { "!" } else { "" }, e.name, e.args.join(", "));
            }
            render_audit(&mut out, &r);
            if let Some(inc) = &r.incident {
                out.push_str(&inc.render_text());
            }
            match &r.status {
                Status::Exited(c) => {
                    let _ = writeln!(out, "exit: {c}");
                }
                Status::Trapped(t) => {
                    let _ = writeln!(out, "trap: {t}");
                }
            }
            if args.iter().any(|a| a == "--stats") {
                let _ = writeln!(
                    out,
                    "cycles: {}  insts: {}  pac signs: {}  pac auths: {}",
                    r.cycles, r.insts, r.pac_signs, r.pac_auths
                );
                if let Some(s) = stats {
                    let _ = writeln!(
                        out,
                        "instrumentation: {} store-signs, {} load-auths, {} cast-resigns, {} arg-resigns, {} strips, {} pp",
                        s.signs_on_store, s.auths_on_load, s.cast_resigns,
                        s.arg_resigns, s.strips, s.pp_signs
                    );
                }
                // With tracing explicitly requested, --stats prints the
                // full collector snapshot (the `run --trace --stats`
                // contract; gated on the flag, not on ambient collector
                // state, so parallel in-process callers stay independent).
                if tracing {
                    let _ = writeln!(out);
                    out.push_str(&tel.snapshot().render_tables());
                }
            }
            Ok(out)
        }
        "profile" => {
            let level = parse_opt_level(args)?;
            let attr = args.iter().any(|a| a == "--attr");
            let top = parse_top(args)?;
            let flame = flag_value(args, "--flame");
            let chrome = flag_value(args, "--chrome");
            if flame.is_some() && !attr {
                return Err("--flame needs --attr (folded stacks come from the profiler)".into());
            }
            let (img, _stats) = Image::build(&module, choice, level);
            let mut img = apply_backend(img, args)?;
            if attr {
                img = img.with_attr();
            }
            if args.iter().any(|a| a == "--record") {
                img = img.with_record();
            }
            let mut vm = Vm::new(&img);
            let r = vm.run();
            let mut out = String::new();
            let _ = writeln!(out, "profile: {file} (mech {})", choice.name());
            let _ = writeln!(
                out,
                "engine: {} (both accounting modes run one translation per image: \
                 vm_compile and vm_compiled_blocks count it under either)",
                img.exec().label()
            );
            match &r.status {
                Status::Exited(c) => {
                    let _ = writeln!(out, "status: exit {c}");
                }
                Status::Trapped(t) => {
                    let _ = writeln!(out, "status: trap {t}");
                }
            }
            render_audit(&mut out, &r);
            if let Some(inc) = &r.incident {
                out.push_str(&inc.render_text());
            }
            if let Some(p) = &r.attr {
                let _ = writeln!(out);
                render_attr_tables(&mut out, p, top);
                if let Some(path) = flame {
                    write_output(path, p.folded_lines())?;
                    let _ = writeln!(out, "folded stacks written: {path}");
                }
            }
            let _ = writeln!(out);
            out.push_str(&tel.snapshot().render_tables());
            if let Some(path) = chrome {
                let events = rsti_telemetry::phase_trace_events(&tel.snapshot());
                write_output(path, rsti_telemetry::chrome_trace(&events))?;
                let _ = writeln!(out, "chrome trace written: {path}");
            }
            Ok(out)
        }
        "analyze" => {
            let m = mech.unwrap_or(Mechanism::Stwc);
            let a = rsti_core::analyze(&module, m);
            let mut out = String::new();
            let _ = writeln!(out, "{} RSTI-types for `{file}`:", a.classes.len());
            for (i, c) in a.classes.iter().enumerate() {
                let tys: Vec<String> =
                    a.types(c).iter().map(|t| module.types.display(*t)).collect();
                let members: Vec<&str> =
                    a.members(c).iter().map(|&v| a.facts.vars[v].name.as_str()).collect();
                let _ = writeln!(
                    out,
                    "M{:<3} types[{}] perm {} modifier {:#018x}\n     members: {}",
                    i + 1,
                    tys.join(", "),
                    if c.writable { "R/W" } else { "R" },
                    c.modifier,
                    members.join(", ")
                );
            }
            Ok(out)
        }
        "instrument" => {
            let m = mech.unwrap_or(Mechanism::Stwc);
            let p = rsti_core::instrument(&module, m);
            Ok(rsti_ir::print_module(&p.module))
        }
        "equivalence" => {
            let s = rsti_core::equivalence_stats(&module);
            Ok(format!(
                "NT {}  RT(STC) {}  RT(STWC) {}  RT(STL) {}  NV {}\nlargest ECV: STC {} STWC {}\nlargest ECT: STC {} STWC {}\n",
                s.nt, s.rt_stc, s.rt_stwc, s.rt_stl, s.nv,
                s.ecv_stc, s.ecv_stwc, s.ect_stc, s.ect_stwc
            ))
        }
        other => unreachable!("`{other}` is not in FILE_COMMANDS"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that switches the process-global telemetry on
    /// and by every fuzz campaign. The exec oracle diffs opclass counts
    /// between two VMs, and each VM samples the global switch when it is
    /// created, so a switch flipped between the two by a test running in
    /// parallel reads as an engine divergence.
    static GLOBAL_TELEMETRY: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn telemetry_guard() -> std::sync::MutexGuard<'static, ()> {
        // A panicking holder leaves nothing to repair: the lock guards no data.
        GLOBAL_TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn write_temp(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const PROG: &str = r#"
        int main() {
            int* p = (int*) malloc(sizeof(int));
            *p = 21;
            print_int(*p * 2);
            return 0;
        }
    "#;

    #[test]
    fn run_command_executes() {
        let f = write_temp("rsti_cli_run.mc", PROG);
        let (code, out) = run_cli(&["run".into(), f, "--stats".into()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("42"), "{out}");
        assert!(out.contains("exit: 0"), "{out}");
        assert!(out.contains("pac signs"), "{out}");
    }

    #[test]
    fn run_baseline_has_no_pac() {
        let f = write_temp("rsti_cli_base.mc", PROG);
        let (code, out) =
            run_cli(&["run".into(), f, "--mech".into(), "none".into(), "--stats".into()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("pac signs: 0"), "{out}");
    }

    #[test]
    fn analyze_lists_classes() {
        let f = write_temp("rsti_cli_an.mc", PROG);
        let (code, out) = run_cli(&["analyze".into(), f]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("RSTI-types"), "{out}");
        assert!(out.contains("int*"), "{out}");
    }

    #[test]
    fn instrument_dumps_pac_ir() {
        let f = write_temp("rsti_cli_instr.mc", PROG);
        let (code, out) = run_cli(&["instrument".into(), f, "--mech".into(), "stl".into()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("pac.sign"), "{out}");
        assert!(out.contains("pac.auth"), "{out}");
    }

    #[test]
    fn equivalence_prints_row() {
        let f = write_temp("rsti_cli_eq.mc", PROG);
        let (code, out) = run_cli(&["equivalence".into(), f]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("NT "), "{out}");
    }

    #[test]
    fn a_source_file_over_the_budget_is_refused_unread() {
        let budget = rsti_serve::MAX_LINE_BYTES as u64;
        let path = std::env::temp_dir().join("rsti_cli_over_budget.mc");
        let sparse = |len: u64| std::fs::File::create(&path).unwrap().set_len(len).unwrap();
        let file = path.to_string_lossy().into_owned();
        sparse(budget + 1);
        let (code, out) = run_cli(&["run".into(), file.clone()]);
        assert_eq!(code, 1);
        assert_eq!(out, format!("error: `{file}` exceeds {budget} bytes\n"));
        // At the budget the file is read (and fails to compile instead).
        sparse(budget);
        let (code, out) = run_cli(&["run".into(), file]);
        assert_eq!(code, 1);
        assert!(out.starts_with("error: ") && !out.contains("exceeds"), "{out}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn errors_are_reported() {
        // Usage mistakes print the usage text.
        let (code, out) = run_cli(&["run".into(), "/nonexistent.mc".into()]);
        assert_eq!(code, 1);
        assert!(out.contains("cannot read") && out.contains("usage:"), "{out}");
        for args in [vec!["bogus".to_string(), "/x".into()], vec!["report".into()]] {
            let (code, out) = run_cli(&args);
            assert_eq!(code, 1);
            let unknown = format!("error: unknown command `{}`", args[0]);
            assert!(out.starts_with(&unknown) && out.contains("usage:"), "{out}");
        }
        // A compile error of a well-formed command is one `error:` line.
        for (name, src, needle) in [
            ("rsti_cli_bad.mc", "int main( {", "line 1"),
            ("rsti_cli_unknown_ident.mc", "int main() { return nope; }", "unknown identifier"),
        ] {
            let (code, out) = run_cli(&["run".into(), write_temp(name, src)]);
            assert_eq!(code, 1);
            assert!(out.contains(needle), "{out}");
            assert!(out.starts_with("error: ") && out.lines().count() == 1, "{out}");
        }
    }

    /// A source that ends inside an escaped char literal is one compile
    /// error, not a panic.
    #[test]
    fn a_char_literal_cut_off_at_eof_is_one_compile_error() {
        let f = write_temp("rsti_cli_eof_char.mc", "int main() { char c = '\\n");
        let (code, out) = run_cli(&["run".into(), f]);
        assert_eq!(code, 1, "{out}");
        assert_eq!(out, "error: line 1: unterminated char literal\n");
    }

    #[test]
    fn nesting_past_the_budget_is_a_frontend_error() {
        let nested = |n: usize| {
            format!("int main() {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n))
        };
        let f = write_temp("rsti_cli_nested_ok.mc", &nested(50));
        let (code, out) = run_cli(&["run".into(), f]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("exit: 1"), "{out}");
        let f = write_temp("rsti_cli_nested_deep.mc", &nested(200_000));
        let (code, out) = run_cli(&["run".into(), f]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("nesting deeper than"), "{out}");
    }

    /// Type shapes that once overflowed the stack or stalled the sizing
    /// answer at every level: a struct holding itself by value is a
    /// compile error, and a 64-level doubling struct (2^67 bytes, sized
    /// once per type) fails the loader's segment bound.
    #[test]
    fn hostile_types_answer_at_every_level() {
        let cyclic_sizeof = "struct a { struct a x; long y; };\n\
                             int main() { return (int) sizeof(struct a); }";
        let cyclic_global = "struct b { long y; struct c z; };\n\
                             struct c { struct b w[2]; };\n\
                             struct b g;\nint main() { return 0; }";
        let mut doubling = String::from("struct s0 { long a; long b; };\n");
        for i in 1..64 {
            doubling += &format!("struct s{i} {{ struct s{} a; struct s{} b; }};\n", i - 1, i - 1);
        }
        doubling += "struct s63 g;\nint main() { return 0; }";
        let files = [
            write_temp("rsti_cli_cyclic_sizeof.mc", cyclic_sizeof),
            write_temp("rsti_cli_cyclic_global.mc", cyclic_global),
            write_temp("rsti_cli_doubling.mc", &doubling),
        ];
        for level in ["none", "block", "cfg", "ipo"] {
            for (f, name) in files[..2].iter().zip(["a", "b"]) {
                let (code, out) = run_cli(&["run".into(), f.clone(), "--opt".into(), level.into()]);
                assert_eq!(code, 1, "{out}");
                let want = format!("line 1: struct #0 `{name}` contains itself by value");
                assert!(out.contains(&want), "{level}: {out}");
            }
            let (code, out) =
                run_cli(&["run".into(), files[2].clone(), "--opt".into(), level.into()]);
            assert_eq!(code, 0, "{out}");
            assert!(
                out.contains("trap: memory fault in <loader>: segment at 0x200000000000 requested \
                              with 18446744073709551615 bytes"),
                "{level}: {out}"
            );
        }
    }

    #[test]
    fn every_usage_listed_backend_parses() {
        // The usage string and `parse_backends` must not drift: every name
        // the help offers is accepted and lands on the expected axis.
        for name in USAGE_BACKENDS {
            assert!(USAGE.contains(name), "usage lists `{name}`");
            let args = ["--backend".to_string(), name.to_string()];
            let (enforce, exec) = parse_backends(&args).unwrap_or_else(|e| panic!("`{name}`: {e}"));
            match name {
                "pac" => assert_eq!(enforce, Some(rsti_vm::Backend::PacInPointer)),
                "mac" => assert_eq!(enforce, Some(rsti_vm::Backend::MacTable)),
                "interp" => assert_eq!(exec, Some(rsti_vm::ExecBackend::Interp)),
                "compiled" => assert_eq!(exec, Some(rsti_vm::ExecBackend::Compiled)),
                other => panic!("untested usage backend `{other}`"),
            }
        }
        // Both axes at once; duplicates on one axis are rejected.
        let both: Vec<String> =
            ["--backend", "mac", "--backend", "compiled"].map(String::from).into();
        assert_eq!(
            parse_backends(&both).unwrap(),
            (Some(rsti_vm::Backend::MacTable), Some(rsti_vm::ExecBackend::Compiled))
        );
        let dup: Vec<String> =
            ["--backend", "interp", "--backend", "compiled"].map(String::from).into();
        assert!(parse_backends(&dup).unwrap_err().contains("twice"));
        assert!(parse_backends(&["--backend".to_string()]).is_err());
        // Without `--backend`, run/profile/explain use block pre-charge.
        let m = rsti_frontend::compile(PROG, "t").unwrap();
        let img = apply_backend(
            Image::baseline(&m).with_exec(rsti_vm::ExecBackend::Interp),
            &[],
        );
        assert_eq!(img.unwrap().exec(), rsti_vm::ExecBackend::Compiled);
    }

    #[test]
    fn run_with_compiled_engine_matches_interp_output() {
        let f = write_temp("rsti_cli_compiled.mc", PROG);
        let default = run_cli(&["run".into(), f.clone(), "--stats".into()]);
        let [interp, compiled] = ["interp", "compiled"].map(|exec| {
            run_cli(&[
                "run".into(),
                f.clone(),
                "--backend".into(),
                exec.into(),
                "--stats".into(),
            ])
        });
        assert_eq!(
            interp, compiled,
            "accounting modes must agree on output and stats"
        );
        assert_eq!(default, compiled);
        // Both axes together, with the optimizer on.
        let (code, out) = run_cli(&[
            "run".into(),
            f,
            "--backend".into(),
            "mac".into(),
            "--backend".into(),
            "compiled".into(),
            "--opt".into(),
            "cfg".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("42"), "{out}");
    }

    #[test]
    fn run_with_mac_backend_and_optimize() {
        let f = write_temp("rsti_cli_mac.mc", PROG);
        let (code, out) = run_cli(&[
            "run".into(),
            f.clone(),
            "--backend".into(),
            "mac".into(),
            "--opt".into(),
            "cfg".into(),
            "--stats".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("42"), "{out}");
        let (code, _) = run_cli(&["run".into(), f.clone(), "--mech".into(), "adaptive".into()]);
        assert_eq!(code, 0);
        let (code, out) = run_cli(&["run".into(), f, "--backend".into(), "xyz".into()]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown backend"), "{out}");
    }

    #[test]
    fn opt_levels_parse_and_agree_on_output() {
        let f = write_temp("rsti_cli_optlevels.mc", PROG);
        let mut outputs = Vec::new();
        for level in ["none", "block", "cfg", "ipo"] {
            let (code, out) = run_cli(&[
                "run".into(),
                f.clone(),
                "--opt".into(),
                level.into(),
            ]);
            assert_eq!(code, 0, "--opt {level}: {out}");
            // Program-visible lines only (everything before `exit:` plus
            // the status itself must be bit-identical across levels).
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "none vs block");
        assert_eq!(outputs[0], outputs[2], "none vs cfg");
        assert_eq!(outputs[0], outputs[3], "none vs ipo");

        let (code, out) = run_cli(&["run".into(), f, "--opt".into(), "turbo".into()]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown opt level"), "{out}");
    }

    // Exercises every optimizer stage: `q` promotes (block counter), the
    // loop header's `*p` pair hoists, and the body/join re-auths elide via
    // the dominator dataflow.
    const OPT_RICH_PROG: &str = r#"
        int sink;
        int main() {
            int* q = (int*) malloc(4);
            *q = 7;
            int* p = (int*) malloc(4);
            if (sink > 0) { p = (int*) malloc(4); }
            *p = 0;
            int i = 0;
            while (*p < 5) {
                *p = *p + 1;
                i = i + 1;
            }
            print_int(*p + *q);
            return 0;
        }
    "#;

    #[test]
    fn profile_reports_split_elision_counters() {
        let _telemetry = telemetry_guard();
        let f = write_temp("rsti_cli_prof_opt.mc", OPT_RICH_PROG);
        let (code, out) = run_cli(&[
            "profile".into(),
            f,
            "--mech".into(),
            "stwc".into(),
            "--opt".into(),
            "cfg".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        for counter in ["auths_elided_block", "auths_elided_dom", "auths_hoisted"] {
            assert!(out.contains(counter), "missing `{counter}`: {out}");
        }
    }

    // `bump` is a small init-stored leaf (inlined); `lagged` keeps an
    // uninitialized-on-one-arm local so it survives as a call whose empty
    // summary lets the `gp` fact cross it — the second `*gp` elides only
    // interprocedurally.
    const IPO_RICH_PROG: &str = r#"
        int sink;
        int* gp;
        long bump(long v) {
            long t = v * 2;
            return t + 1;
        }
        long lagged(long v) {
            long x;
            if (v > 1) { x = v; }
            return x;
        }
        int main() {
            gp = (int*) malloc(4);
            if (sink > 0) { gp = (int*) malloc(8); }
            int a = *gp;
            long w = lagged((long) a);
            int b = a + *gp;
            long c = bump((long) b + w);
            print_int(c);
            return 0;
        }
    "#;

    #[test]
    fn profile_reports_interprocedural_counters() {
        let _telemetry = telemetry_guard();
        let f = write_temp("rsti_cli_prof_ipo.mc", IPO_RICH_PROG);
        let (code, out) = run_cli(&[
            "profile".into(),
            f,
            "--mech".into(),
            "stwc".into(),
            "--opt".into(),
            "ipo".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        // The counter table hides zero rows, so containment doubles as a
        // "this pipeline stage actually fired" assertion.
        for counter in ["auths_elided_ipo", "calls_inlined", "summary_kill_refinements"] {
            assert!(out.contains(counter), "missing `{counter}`: {out}");
        }
    }

    #[test]
    fn bundled_samples_run_under_every_mechanism() {
        // The samples/ directory must stay working: it is the README's
        // hands-on entry point.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../samples");
        let mut found = 0;
        for entry in std::fs::read_dir(&root).expect("samples/ exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("mc") {
                continue;
            }
            found += 1;
            let p = path.to_string_lossy().into_owned();
            for mech in ["none", "parts", "stc", "stwc", "stl", "adaptive"] {
                let (code, out) = run_cli(&[
                    "run".into(),
                    p.clone(),
                    "--mech".into(),
                    mech.into(),
                ]);
                assert_eq!(code, 0, "{p} under {mech}: {out}");
                assert!(out.contains("exit: 0"), "{p} under {mech}: {out}");
            }
        }
        assert!(found >= 3, "expected bundled samples, found {found}");
    }

    #[test]
    fn fuzz_smoke_is_clean_and_exits_zero() {
        let _telemetry = telemetry_guard();
        let (code, out) = run_cli(&["fuzz".into(), "--seeds".into(), "2".into()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 seed(s)"), "{out}");
        assert!(out.contains("0 oracle violation(s)"), "{out}");
    }

    #[test]
    fn fuzz_rejects_bad_flag_values() {
        let (code, out) = run_cli(&["fuzz".into(), "--seeds".into(), "many".into()]);
        assert_eq!(code, 1);
        assert!(out.contains("bad --seeds"), "{out}");
        let (code, out) = run_cli(&["fuzz".into(), "--start".into(), "-3".into()]);
        assert_eq!(code, 1);
        assert!(out.contains("bad --start"), "{out}");
    }

    #[test]
    fn usage_lists_the_fuzz_command() {
        assert!(USAGE.contains("rsti fuzz"), "{USAGE}");
    }

    #[test]
    fn usage_lists_the_serve_command_and_its_protocol_verbs() {
        assert!(USAGE.contains("rsti serve"), "{USAGE}");
        for needle in ["--workers", "--cache-cap", "--socket", "--stats-out", "shutdown"] {
            assert!(USAGE.contains(needle), "usage lists `{needle}`");
        }
    }

    #[test]
    fn serve_flags_parse_with_defaults_and_overrides() {
        let (cfg, opts) = parse_serve_config(&["serve".into()]).unwrap();
        let defaults = rsti_serve::ServeConfig::default();
        assert_eq!(cfg.workers, defaults.workers);
        assert_eq!(cfg.cache_cap, defaults.cache_cap);
        assert_eq!(cfg.fuel, defaults.fuel);
        assert_eq!(opts, ServeOptions::default());

        let args: Vec<String> = [
            "serve", "--workers", "8", "--cache-cap", "32", "--fuel", "5000",
            "--socket", "/tmp/rsti.sock", "--stats-out", "stats.json", "--trace", "t.jsonl",
        ]
        .map(String::from)
        .into();
        let (cfg, opts) = parse_serve_config(&args).unwrap();
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.cache_cap, 32);
        assert_eq!(cfg.fuel, 5000);
        assert_eq!(opts.socket.as_deref(), Some("/tmp/rsti.sock"));
        assert_eq!(opts.stats_out.as_deref(), Some("stats.json"));
        assert_eq!(opts.trace.as_deref(), Some("t.jsonl"));

        // --workers 0 is clamped to one worker, not an error.
        let args: Vec<String> = ["serve", "--workers", "0"].map(String::from).into();
        assert_eq!(parse_serve_config(&args).unwrap().0.workers, 1);
    }

    #[test]
    fn serve_rejects_bad_numeric_flags_via_run_cli() {
        for flag in ["--workers", "--cache-cap", "--fuel"] {
            let (code, out) =
                run_cli(&["serve".into(), flag.into(), "many".into()]);
            assert_eq!(code, 1);
            assert!(out.contains(&format!("bad {flag}")), "{out}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn serve_io_errors_exit_1_without_the_usage_text() {
        let sock = std::env::temp_dir()
            .join("rsti-cli-no-such-dir")
            .join("serve.sock");
        let (code, out) = run_cli(&[
            "serve".into(),
            "--socket".into(),
            sock.to_string_lossy().into_owned(),
        ]);
        assert_eq!(code, 1);
        assert!(out.starts_with("error: serve socket"), "{out}");
        assert!(
            !out.contains("usage:"),
            "an I/O error is not a usage mistake: {out}"
        );
    }

    #[test]
    fn mechanism_parsing() {
        let mechanism = |s| MechChoice::parse(s).map(MechChoice::mechanism);
        assert_eq!(mechanism("stwc").unwrap(), Some(Mechanism::Stwc));
        assert_eq!(mechanism("NONE").unwrap(), None);
        assert_eq!(mechanism("adaptive").unwrap(), Some(Mechanism::Stwc));
        assert!(mechanism("xyz").is_err());
    }

    #[test]
    fn every_usage_listed_mechanism_parses() {
        // The usage string and the parser must not drift: every name the
        // help offers is accepted, and each maps to the expected choice.
        for name in USAGE_MECHS {
            assert!(USAGE.contains(name), "usage lists `{name}`");
            let c = MechChoice::parse(name).unwrap_or_else(|e| panic!("`{name}`: {e}"));
            match name {
                "none" => assert_eq!(c, MechChoice::Baseline),
                "adaptive" => assert_eq!(c, MechChoice::Adaptive),
                "stwc" => assert_eq!(c, MechChoice::Fixed(Mechanism::Stwc)),
                "stc" => assert_eq!(c, MechChoice::Fixed(Mechanism::Stc)),
                "stl" => assert_eq!(c, MechChoice::Fixed(Mechanism::Stl)),
                "parts" => assert_eq!(c, MechChoice::Fixed(Mechanism::Parts)),
                other => panic!("untested usage mechanism `{other}`"),
            }
        }
        // Long forms and the baseline alias keep working too.
        for (long, short) in [("rsti-stwc", "stwc"), ("rsti-stc", "stc"), ("rsti-stl", "stl")] {
            assert_eq!(MechChoice::parse(long).unwrap(), MechChoice::parse(short).unwrap());
        }
        assert_eq!(MechChoice::parse("baseline").unwrap(), MechChoice::Baseline);
    }

    #[test]
    fn profile_prints_phase_and_counter_tables() {
        let _telemetry = telemetry_guard();
        let f = write_temp("rsti_cli_prof.mc", PROG);
        let (code, out) = run_cli(&["profile".into(), f, "--mech".into(), "stwc".into()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("status: exit 0"), "{out}");
        // Per-phase wall-time table: the run's own phases must appear.
        assert!(out.contains("phase"), "{out}");
        // The default accounting mode is block pre-charge.
        assert!(out.contains("engine: compiled"), "{out}");
        for phase in
            ["parse", "lower", "collect_facts", "analyze", "instrument", "vm_compile", "vm_run"]
        {
            assert!(out.contains(phase), "missing phase `{phase}`: {out}");
        }
        assert!(out.contains("vm_compiled_blocks"), "{out}");
        // Per-mechanism check counters.
        assert!(out.contains("signs_inserted"), "{out}");
        assert!(out.contains("auths_inserted"), "{out}");
        assert!(out.contains("classes_stwc"), "{out}");
        assert!(out.contains("vm_pac_signs"), "{out}");
    }

    #[test]
    fn profile_attr_renders_tables_and_exports() {
        let _telemetry = telemetry_guard();
        let f = write_temp("rsti_cli_attr.mc", PROG);
        let flame = std::env::temp_dir().join("rsti_cli_attr.folded");
        let chrome = std::env::temp_dir().join("rsti_cli_attr_trace.json");
        let (code, out) = run_cli(&[
            "profile".into(),
            f.clone(),
            "--attr".into(),
            "--top".into(),
            "5".into(),
            "--flame".into(),
            flame.to_string_lossy().into_owned(),
            "--chrome".into(),
            chrome.to_string_lossy().into_owned(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("attribution: sampling every"), "{out}");
        assert!(out.contains("top functions by exclusive cycles"), "{out}");
        assert!(out.contains("top check sites by cycles"), "{out}");
        assert!(out.contains("main"), "{out}");
        // Folded stacks: `frame;frame count` lines (flamegraph.pl input).
        let folded = std::fs::read_to_string(&flame).unwrap();
        for line in folded.lines() {
            let (path, count) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!path.is_empty() && count.parse::<u64>().is_ok(), "{line}");
        }
        // Chrome trace: the stable envelope plus the pipeline phases.
        let trace = std::fs::read_to_string(&chrome).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("vm_run"), "{trace}");

        // --flame without --attr is a usage error.
        let (code, out) = run_cli(&[
            "profile".into(),
            f,
            "--flame".into(),
            "/tmp/x.folded".into(),
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("--flame needs --attr"), "{out}");
    }

    #[test]
    fn explain_attack_renders_incident_report() {
        let (code, out) = run_cli(&[
            "explain".into(),
            "--attack".into(),
            "newton-cscfi".into(),
            "--mech".into(),
            "stwc".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("== RSTI incident report =="), "{out}");
        assert!(out.contains("verdict     :"), "{out}");
        assert!(out.contains("attacker_write"), "{out}");
        // Without a defense nothing traps, so there is nothing to explain.
        let (code, out) = run_cli(&[
            "explain".into(),
            "--attack".into(),
            "newton-cscfi".into(),
            "--mech".into(),
            "none".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("no detection trap"), "{out}");
        // Unknown ids list the catalogue.
        let (code, out) = run_cli(&["explain".into(), "--attack".into(), "nope".into()]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown attack"), "{out}");
        assert!(out.contains("newton-cscfi"), "{out}");
    }

    #[test]
    fn explain_attack_json_is_engine_invariant() {
        let mut bodies = Vec::new();
        for engine in ["interp", "compiled"] {
            let (code, out) = run_cli(&[
                "explain".into(),
                "--attack".into(),
                "newton-cscfi".into(),
                "--backend".into(),
                engine.into(),
                "--json".into(),
            ]);
            assert_eq!(code, 0, "{engine}: {out}");
            let body = out.trim_end();
            assert!(body.starts_with('{') && body.ends_with('}'), "{out}");
            assert!(body.contains("\"schema\":1"), "{out}");
            assert!(body.contains("\"check_site\":"), "{out}");
            assert!(body.contains("\"presented_modifier\":"), "{out}");
            bodies.push(out);
        }
        assert_eq!(bodies[0], bodies[1], "incident JSON must be engine-invariant");
    }

    #[test]
    fn explain_attack_builds_at_the_requested_opt_level() {
        // dop-proftpd's pause function is inlined at ipo; the attack still
        // pauses there and the header names the level it was built at.
        let (code, out) = run_cli(&[
            "explain".into(),
            "--attack".into(),
            "dop-proftpd".into(),
            "--opt".into(),
            "ipo".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("under RSTI-STWC (compiled engine, opt ipo): detected"),
            "{out}"
        );
        assert!(out.contains("== RSTI incident report =="), "{out}");
        assert!(USAGE.contains("--attack <scenario-id> [--mech stwc|stc|stl|parts|none] \
                                [--backend interp|compiled] [--opt"));
    }

    #[test]
    fn explain_attack_rejects_adaptive() {
        let (code, out) = run_cli(&[
            "explain".into(),
            "--attack".into(),
            "newton-cscfi".into(),
            "--mech".into(),
            "adaptive".into(),
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--mech none|parts|stc|stwc|stl"), "{out}");
        assert!(out.contains("adaptive, pac and mac do not combine"), "{out}");
        assert!(!out.contains("RSTI-STWC"), "{out}");
    }

    #[test]
    fn explain_file_mode_handles_benign_programs() {
        let f = write_temp("rsti_cli_explain_benign.mc", PROG);
        let (code, out) = run_cli(&["explain".into(), f]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("no RSTI detection trap"), "{out}");
        // explain without a file or --attack is a usage error.
        let (code, out) = run_cli(&["explain".into()]);
        assert_eq!(code, 1);
        assert!(out.contains("--attack"), "{out}");
    }

    #[test]
    fn usage_lists_explain_and_record() {
        assert!(USAGE.contains("rsti explain"), "{USAGE}");
        assert!(USAGE.contains("--attack"), "{USAGE}");
        assert!(USAGE.contains("--record"), "{USAGE}");
    }

    #[test]
    fn run_record_is_silent_on_clean_runs() {
        // Recorder inertness at the CLI surface: arming it must not change
        // a clean run's output in any way.
        let f = write_temp("rsti_cli_run_rec.mc", PROG);
        let plain = run_cli(&["run".into(), f.clone(), "--stats".into()]);
        let rec = run_cli(&["run".into(), f, "--record".into(), "--stats".into()]);
        assert_eq!(plain, rec, "recorder must not change a clean run's output");
    }

    #[test]
    fn fuzz_smoke_with_recorder_is_clean() {
        let _telemetry = telemetry_guard();
        // Recorder inertness under the differential oracle: verdicts stay
        // unchanged and interp ≡ compiled incidents on every seed.
        let (code, out) =
            run_cli(&["fuzz".into(), "--seeds".into(), "2".into(), "--record".into()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 oracle violation(s)"), "{out}");
    }

    #[test]
    fn fuzz_smoke_with_profiler_is_clean() {
        let _telemetry = telemetry_guard();
        // Satellite guarantee: the attribution profiler never changes an
        // oracle verdict — a profiled campaign stays green.
        let (code, out) =
            run_cli(&["fuzz".into(), "--seeds".into(), "2".into(), "--attr".into()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 oracle violation(s)"), "{out}");
    }

    #[test]
    fn run_trace_emits_valid_jsonl_and_snapshot() {
        let _telemetry = telemetry_guard();
        let f = write_temp("rsti_cli_trace.mc", PROG);
        let trace = std::env::temp_dir().join("rsti_cli_trace.jsonl");
        let trace_s = trace.to_string_lossy().into_owned();
        let (code, out) = run_cli(&[
            "run".into(),
            f,
            "--trace".into(),
            trace_s,
            "--stats".into(),
        ]);
        assert_eq!(code, 0, "{out}");
        // --trace --stats adds the full snapshot tables.
        assert!(out.contains("counter"), "{out}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(!body.trim().is_empty(), "trace file has events");
        for line in body.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "JSONL line shape: {line}"
            );
            assert!(line.contains("\"type\":\""), "typed event: {line}");
        }
        assert!(body.contains("\"type\":\"run_end\""), "{body}");
    }

    #[test]
    fn run_reports_violation_audit_record() {
        // An injected STWC violation must surface the structured audit
        // line naming mechanism, site, and faulting instruction.
        let src = r#"
            void benign() { }
            void evil() { print_str("EVIL"); }
            struct ctx { void (*cb)(); };
            struct ctx* g_ctx;
            void dispatch() { g_ctx->cb(); }
            int main() {
                g_ctx = (struct ctx*) malloc(sizeof(struct ctx));
                g_ctx->cb = benign;
                dispatch();
                return 0;
            }
        "#;
        let m = rsti_frontend::compile(src, "t").unwrap();
        let p = rsti_core::instrument(&m, Mechanism::Stwc);
        let img = Image::from_instrumented(&p);
        let mut vm = Vm::new(&img);
        assert_eq!(vm.run_to_function("dispatch"), rsti_vm::RunStop::Entered);
        let obj = vm.heap_live()[0].0;
        let evil = vm.func_addr("evil").unwrap();
        vm.attacker_write_u64(obj, evil).unwrap();
        let r = vm.finish();
        let mut out = String::new();
        render_audit(&mut out, &r);
        assert!(out.contains("violation: RSTI-STWC pac_auth at on_load in dispatch"), "{out}");
        assert!(out.contains("modifier 0x"), "{out}");
    }
}
