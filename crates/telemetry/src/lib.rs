//! # rsti-telemetry — structured tracing, metrics, and violation audit
//!
//! A zero-dependency, thread-safe observability layer for the whole RSTI
//! pipeline. The paper's evaluation is built on *counting things* — signed
//! pointers, authenticated loads and calls, per-mechanism check volumes
//! (Figs. 9/10, Tables 2–4) — and this crate makes those counts first-class
//! runtime data instead of ad-hoc printouts:
//!
//! * [`Collector`] — atomic counters plus monotonic span timers behind an
//!   `Arc`-shareable handle; the process-wide instance is [`global`];
//! * [`Phase`] / [`CounterId`] — the closed taxonomy of pipeline phases
//!   and metric names (stable serialized identifiers);
//! * [`Event`] — a `#[derive]`-free event enum with hand-rolled JSONL
//!   serialization (the workspace is dependency-free by design);
//! * [`AuditRecord`] — one structured violation-audit entry per RSTI trap:
//!   mechanism, STI class modifier, instrumentation site, faulting
//!   instruction, function, and line — the data behind Table 4's
//!   detection claims;
//! * [`TelemetrySnapshot`] — a point-in-time registry snapshot with stable
//!   serialized field names (golden-tested);
//! * [`Incident`] — a full forensic report for one RSTI detection trap,
//!   synthesized by the VM's flight recorder (`incident` module): failing
//!   check site, expected-vs-presented modifier/key, sign-site lineage,
//!   scope timeline, and the last-K event window;
//! * [`json`] — the one JSON module: [`json_str`] for the writers and the
//!   bounded reader [`parse_json`] that `serve` and `rsti report` use.
//!
//! ## Off-by-default cost guarantee
//!
//! The collector is disabled until [`Collector::enable`] runs (the CLI's
//! `--trace` flag or the `RSTI_TRACE` environment variable). Every hot-path
//! entry point begins with a single relaxed-load branch on the enabled
//! flag, so a disabled collector compiles down to branch-on-bool no-ops;
//! the `vm_throughput` bench guard holds the disabled-path delta under 2%.

#![warn(missing_docs)]

pub mod export;
pub mod incident;
pub mod json;

pub use export::{
    chrome_trace, phase_trace_events, to_folded, Histogram, TraceEvent, HIST_BUCKETS,
};
pub use incident::{Incident, IncidentEvent, SignLineage, INCIDENT_SCHEMA};
pub use json::{json_str, parse_json, Json};

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Taxonomy
// ---------------------------------------------------------------------------

/// A timed pipeline phase. The serialized names ([`Phase::name`]) are part
/// of the trace format and must stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Frontend: lex + parse to the AST.
    Parse,
    /// Frontend: AST lowering to verified IR.
    Lower,
    /// Core: STI fact collection (`collect_facts`).
    CollectFacts,
    /// Core: RSTI-type construction (`analyze`).
    Analyze,
    /// Core: the instrumentation pass.
    Instrument,
    /// Core: the O2-model optimizer (`optimize_program_at`).
    Optimize,
    /// VM: translation of an image's basic blocks into pre-resolved ops,
    /// once per image, under either accounting mode (on an image's first
    /// run or `Image::precompile`).
    VmCompile,
    /// VM: program execution.
    VmRun,
    /// Fuzzing: grammar-directed program generation plus the oracle runs.
    FuzzGen,
    /// Fuzzing: delta-debugging minimization of a failing program.
    FuzzMinimize,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 10] = [
        Phase::Parse,
        Phase::Lower,
        Phase::CollectFacts,
        Phase::Analyze,
        Phase::Instrument,
        Phase::Optimize,
        Phase::VmCompile,
        Phase::VmRun,
        Phase::FuzzGen,
        Phase::FuzzMinimize,
    ];

    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Lower => "lower",
            Phase::CollectFacts => "collect_facts",
            Phase::Analyze => "analyze",
            Phase::Instrument => "instrument",
            Phase::Optimize => "optimize",
            Phase::VmCompile => "vm_compile",
            Phase::VmRun => "vm_run",
            Phase::FuzzGen => "fuzz_gen",
            Phase::FuzzMinimize => "fuzz_minimize",
        }
    }
}

/// A registered metric. The serialized names ([`CounterId::name`]) are part
/// of the snapshot format and must stay stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    // -- instrumentation pass (static site counts) --
    /// On-store signs inserted by the pass.
    SignsInserted,
    /// On-load (and pp) authentications inserted by the pass.
    AuthsInserted,
    /// Redundant authentications elided block-locally (single-store slot
    /// promotion plus the straight-line available-auth cache).
    AuthsElidedBlock,
    /// Additional authentications elided by the CFG-level dataflow pass
    /// (available auths intersected across predecessors, reuse gated on
    /// the dominator tree).
    AuthsElidedDom,
    /// Loop-header load+auth pairs hoisted into loop preheaders.
    AuthsHoisted,
    /// Authentications removed by the interprocedural level: summary-kill
    /// dataflow elisions, sign→store forwarding, and folded internal-
    /// boundary re-sign round-trips.
    AuthsElidedIpo,
    /// Call sites inlined by the post-instrumentation size-budgeted
    /// inliner.
    CallsInlined,
    /// Direct-call sites whose kill set the bottom-up function summaries
    /// refined below the intraprocedural clobber-everything assumption.
    SummaryKillRefinements,
    /// PAC modifiers resolved at optimize time (STL location-mixing with a
    /// statically known address folded into the instruction's modifier).
    ModifiersPrecomputed,
    /// External-boundary strips inserted.
    StripsInserted,
    /// Pointer-to-pointer CE/FE sites inserted.
    PpSitesInserted,
    // -- analysis (per-mechanism RSTI-type class counts) --
    /// RSTI-type classes built under STWC.
    ClassesStwc,
    /// RSTI-type classes built under STC.
    ClassesStc,
    /// RSTI-type classes built under STL.
    ClassesStl,
    /// Classes built under the PARTS baseline.
    ClassesParts,
    // -- PAC unit --
    /// QARMA cipher invocations (PAC memo misses).
    QarmaCalls,
    /// Full-PAC memo hits.
    PacMemoHits,
    /// Tweak-schedule memo hits.
    SchedMemoHits,
    /// Tweak-schedule memo misses (LFSR expansions).
    SchedMemoMisses,
    // -- VM dynamic counts --
    /// Finished runs under per-op reference accounting (`interp`).
    VmRunsInterp,
    /// Finished runs under block pre-charge (`compiled`, the default).
    VmRunsCompiled,
    /// Basic blocks translated into pre-resolved ops, under either mode
    /// (one translation per image, shared by every later run of it).
    VmCompiledBlocks,
    /// Dynamic `pac` (sign) operations executed.
    VmPacSigns,
    /// Dynamic `aut` operations executed.
    VmPacAuths,
    /// Dynamic authentication failures.
    VmAuthFailures,
    /// Runs that ended in a trap of any kind.
    VmTraps,
    /// Runs that ended in an RSTI detection (the violation audit).
    VmViolations,
    /// Finished runs executed with the attribution profiler enabled.
    VmAttrRuns,
    /// Deterministic call-stack samples taken by the attribution profiler.
    VmAttrSamples,
    // -- VM executed instructions, by opcode class --
    /// Memory instructions executed (load/store/alloca).
    VmInstMem,
    /// Arithmetic instructions executed (bin/cmp/convert/bitcast).
    VmInstArith,
    /// Calls executed (direct/indirect/external).
    VmInstCall,
    /// PA instructions executed (`pac`/`aut`/`xpac`/`pp_*`).
    VmInstPac,
    /// Block terminators executed.
    VmInstBranch,
    /// Everything else (malloc/free/print).
    VmInstOther,
    // -- differential fuzzing --
    /// Seeds run through the differential oracles.
    FuzzSeedsRun,
    /// Oracle failures observed.
    FuzzFailures,
    /// Candidate programs tried during delta-debugging minimization.
    FuzzMinimizeAttempts,
    // -- serving (`rsti serve`) --
    /// Requests accepted by the serve front end.
    ServeRequests,
    /// Requests answered from the content-addressed module cache.
    ServeCacheHits,
    /// Requests that had to run the full instrumentation pipeline.
    ServeCacheMisses,
    /// Cached images evicted by the LRU bound.
    ServeCacheEvictions,
    /// Requests that returned a structured error (bad input, panic).
    ServeErrors,
    // -- the collector itself --
    /// JSONL trace-sink write failures (events dropped, never propagated
    /// into the traced program — but no longer silently).
    TraceSinkErrors,
}

impl CounterId {
    /// Every counter, in snapshot order.
    pub const ALL: [CounterId; 44] = [
        CounterId::SignsInserted,
        CounterId::AuthsInserted,
        CounterId::AuthsElidedBlock,
        CounterId::AuthsElidedDom,
        CounterId::AuthsHoisted,
        CounterId::AuthsElidedIpo,
        CounterId::CallsInlined,
        CounterId::SummaryKillRefinements,
        CounterId::ModifiersPrecomputed,
        CounterId::StripsInserted,
        CounterId::PpSitesInserted,
        CounterId::ClassesStwc,
        CounterId::ClassesStc,
        CounterId::ClassesStl,
        CounterId::ClassesParts,
        CounterId::QarmaCalls,
        CounterId::PacMemoHits,
        CounterId::SchedMemoHits,
        CounterId::SchedMemoMisses,
        CounterId::VmRunsInterp,
        CounterId::VmRunsCompiled,
        CounterId::VmCompiledBlocks,
        CounterId::VmPacSigns,
        CounterId::VmPacAuths,
        CounterId::VmAuthFailures,
        CounterId::VmTraps,
        CounterId::VmViolations,
        CounterId::VmAttrRuns,
        CounterId::VmAttrSamples,
        CounterId::VmInstMem,
        CounterId::VmInstArith,
        CounterId::VmInstCall,
        CounterId::VmInstPac,
        CounterId::VmInstBranch,
        CounterId::VmInstOther,
        CounterId::FuzzSeedsRun,
        CounterId::FuzzFailures,
        CounterId::FuzzMinimizeAttempts,
        CounterId::ServeRequests,
        CounterId::ServeCacheHits,
        CounterId::ServeCacheMisses,
        CounterId::ServeCacheEvictions,
        CounterId::ServeErrors,
        CounterId::TraceSinkErrors,
    ];

    /// Stable serialized name.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::SignsInserted => "signs_inserted",
            CounterId::AuthsInserted => "auths_inserted",
            CounterId::AuthsElidedBlock => "auths_elided_block",
            CounterId::AuthsElidedDom => "auths_elided_dom",
            CounterId::AuthsHoisted => "auths_hoisted",
            CounterId::AuthsElidedIpo => "auths_elided_ipo",
            CounterId::CallsInlined => "calls_inlined",
            CounterId::SummaryKillRefinements => "summary_kill_refinements",
            CounterId::ModifiersPrecomputed => "modifiers_precomputed",
            CounterId::StripsInserted => "strips_inserted",
            CounterId::PpSitesInserted => "pp_sites_inserted",
            CounterId::ClassesStwc => "classes_stwc",
            CounterId::ClassesStc => "classes_stc",
            CounterId::ClassesStl => "classes_stl",
            CounterId::ClassesParts => "classes_parts",
            CounterId::QarmaCalls => "qarma_calls",
            CounterId::PacMemoHits => "pac_memo_hits",
            CounterId::SchedMemoHits => "sched_memo_hits",
            CounterId::SchedMemoMisses => "sched_memo_misses",
            CounterId::VmRunsInterp => "vm_runs_interp",
            CounterId::VmRunsCompiled => "vm_runs_compiled",
            CounterId::VmCompiledBlocks => "vm_compiled_blocks",
            CounterId::VmPacSigns => "vm_pac_signs",
            CounterId::VmPacAuths => "vm_pac_auths",
            CounterId::VmAuthFailures => "vm_auth_failures",
            CounterId::VmTraps => "vm_traps",
            CounterId::VmViolations => "vm_violations",
            CounterId::VmAttrRuns => "vm_attr_runs",
            CounterId::VmAttrSamples => "vm_attr_samples",
            CounterId::VmInstMem => "vm_inst_mem",
            CounterId::VmInstArith => "vm_inst_arith",
            CounterId::VmInstCall => "vm_inst_call",
            CounterId::VmInstPac => "vm_inst_pac",
            CounterId::VmInstBranch => "vm_inst_branch",
            CounterId::VmInstOther => "vm_inst_other",
            CounterId::FuzzSeedsRun => "fuzz_seeds_run",
            CounterId::FuzzFailures => "fuzz_failures",
            CounterId::FuzzMinimizeAttempts => "fuzz_minimize_attempts",
            CounterId::ServeRequests => "serve_requests",
            CounterId::ServeCacheHits => "serve_cache_hits",
            CounterId::ServeCacheMisses => "serve_cache_misses",
            CounterId::ServeCacheEvictions => "serve_cache_evictions",
            CounterId::ServeErrors => "serve_errors",
            CounterId::TraceSinkErrors => "trace_sink_errors",
        }
    }

    fn index(self) -> usize {
        CounterId::ALL.iter().position(|&c| c == self).expect("covered")
    }
}

const N_COUNTERS: usize = CounterId::ALL.len();
const N_PHASES: usize = Phase::ALL.len();

// ---------------------------------------------------------------------------
// Violation audit
// ---------------------------------------------------------------------------

/// One violation-audit entry: everything Table 4 needs to attribute a
/// detection — which mechanism fired, on which STI class (modifier), at
/// which instrumentation site, in which function/instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Mechanism in force (`RSTI-STWC`, `RSTI-STC`, `RSTI-STL`, `PARTS`).
    pub mechanism: String,
    /// The STI class's 64-bit PAC modifier (the class identity at runtime).
    pub modifier: u64,
    /// The instrumentation site kind that fired (`on_load`, `on_store`,
    /// `cast_resign`, `arg_resign`, `pp_auth`, ...).
    pub site: String,
    /// Function the check executed in.
    pub func: String,
    /// Source line (0 when debug info is absent).
    pub line: u32,
    /// The faulting instruction (`pac.auth`, `pp.auth`, ...).
    pub inst: String,
    /// Free-form detail (found/expected PAC, missing CE tag, ...).
    pub detail: String,
}

impl AuditRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"type\":\"violation\",\"mechanism\":{},\"modifier\":\"{:#018x}\",\
             \"site\":{},\"func\":{},\"line\":{},\"inst\":{},\"detail\":{}}}",
            json_str(&self.mechanism),
            self.modifier,
            json_str(&self.site),
            json_str(&self.func),
            self.line,
            json_str(&self.inst),
            json_str(&self.detail),
        )
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A trace event, serialized as one JSONL line. Deliberately `#[derive]`-free:
/// the wire format is the hand-rolled [`Event::to_json`], not an artifact of
/// a derive, so it cannot drift silently.
pub enum Event<'a> {
    /// A completed span.
    Span {
        /// Phase the span timed.
        phase: Phase,
        /// Wall-clock nanoseconds.
        ns: u64,
    },
    /// A counter delta worth tracing individually.
    Counter {
        /// The counter.
        id: CounterId,
        /// Amount added.
        delta: u64,
    },
    /// An RSTI violation (detection trap).
    Violation(&'a AuditRecord),
    /// End-of-run summary from the VM.
    RunEnd {
        /// Instructions executed.
        insts: u64,
        /// Modelled cycles.
        cycles: u64,
        /// Dynamic `pac` count.
        pac_signs: u64,
        /// Dynamic `aut` count.
        pac_auths: u64,
        /// Final status rendering.
        status: &'a str,
    },
}

impl Event<'_> {
    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Event::Span { phase, ns } => {
                format!("{{\"type\":\"span\",\"phase\":\"{}\",\"ns\":{}}}", phase.name(), ns)
            }
            Event::Counter { id, delta } => {
                format!("{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{}}}", id.name(), delta)
            }
            Event::Violation(rec) => rec.to_json(),
            Event::RunEnd { insts, cycles, pac_signs, pac_auths, status } => format!(
                "{{\"type\":\"run_end\",\"insts\":{},\"cycles\":{},\"pac_signs\":{},\
                 \"pac_auths\":{},\"status\":{}}}",
                insts,
                cycles,
                pac_signs,
                pac_auths,
                json_str(status)
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

/// The metrics registry: atomic counters, span accumulators, and an
/// optional JSONL sink. Thread-safe through `&self`; the process-wide
/// instance is [`global`], and tests build private ones with
/// [`Collector::new`].
pub struct Collector {
    enabled: AtomicBool,
    counters: [AtomicU64; N_COUNTERS],
    span_ns: [AtomicU64; N_PHASES],
    span_calls: [AtomicU64; N_PHASES],
    sink: Mutex<Option<Box<dyn Write + Send>>>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A fresh, disabled collector with no sink.
    pub fn new() -> Self {
        Collector {
            enabled: AtomicBool::new(false),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            span_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            span_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            sink: Mutex::new(None),
        }
    }

    /// Turns collection on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns collection off (the sink, if any, is kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether collection is on. One relaxed load — the only cost a
    /// disabled pipeline pays.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Zeroes every counter and span accumulator (tests, `rsti profile`).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for (ns, calls) in self.span_ns.iter().zip(&self.span_calls) {
            ns.store(0, Ordering::Relaxed);
            calls.store(0, Ordering::Relaxed);
        }
    }

    /// Adds `n` to a counter. No-op (one branch) while disabled.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if self.is_enabled() && n > 0 {
            self.counters[id.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.index()].load(Ordering::Relaxed)
    }

    /// Starts a span over `phase`. While disabled the guard holds no
    /// timestamp and its drop is a no-op.
    #[inline]
    pub fn span(&self, phase: Phase) -> SpanGuard<'_> {
        SpanGuard {
            collector: self,
            phase,
            start: if self.is_enabled() { Some(Instant::now()) } else { None },
        }
    }

    fn finish_span(&self, phase: Phase, ns: u64) {
        let i = Phase::ALL.iter().position(|&p| p == phase).expect("covered");
        self.span_ns[i].fetch_add(ns, Ordering::Relaxed);
        self.span_calls[i].fetch_add(1, Ordering::Relaxed);
        self.emit(&Event::Span { phase, ns });
    }

    /// Locks the sink, recovering from poison: a panic in one emitting
    /// thread must not silence tracing (or crash `emit`) in every other
    /// thread for the rest of the process — the writer itself is still a
    /// valid object, at worst missing the panicking thread's last line.
    fn sink_guard(&self) -> std::sync::MutexGuard<'_, Option<Box<dyn Write + Send>>> {
        self.sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Routes trace output to a JSONL file at `path`.
    ///
    /// # Errors
    /// Propagates file-creation errors.
    pub fn set_sink_path(&self, path: &str) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        *self.sink_guard() = Some(Box::new(std::io::BufWriter::new(file)));
        Ok(())
    }

    /// Installs an arbitrary writer as the JSONL sink (tests).
    pub fn set_sink(&self, w: Box<dyn Write + Send>) {
        *self.sink_guard() = Some(w);
    }

    /// Removes the sink, flushing it first.
    pub fn clear_sink(&self) {
        if let Some(mut w) = self.sink_guard().take() {
            let _ = w.flush();
        }
    }

    /// Writes one event to the sink (if any).
    ///
    /// The whole line — JSON plus trailing newline — is buffered into one
    /// `write_all` while the sink lock is held, so concurrent emitters
    /// (e.g. `rsti serve` workers) can never interleave partial lines even
    /// through a writer that splits `write_fmt` into pieces. I/O failures
    /// never propagate into the traced program, but they are no longer
    /// swallowed either: each failed line bumps
    /// [`CounterId::TraceSinkErrors`].
    pub fn emit(&self, event: &Event<'_>) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self.sink_guard();
        if let Some(w) = guard.as_mut() {
            let mut line = event.to_json();
            line.push('\n');
            let res = w.write_all(line.as_bytes()).and_then(|()| w.flush());
            drop(guard);
            if res.is_err() {
                self.add(CounterId::TraceSinkErrors, 1);
            }
        }
    }

    /// Records a violation: bumps [`CounterId::VmViolations`] and emits the
    /// audit record to the sink.
    pub fn record_violation(&self, rec: &AuditRecord) {
        self.add(CounterId::VmViolations, 1);
        self.emit(&Event::Violation(rec));
    }

    /// Enables collection and installs a sink when `RSTI_TRACE` names a
    /// path. Returns whether the environment turned tracing on.
    pub fn init_from_env(&self) -> bool {
        match std::env::var("RSTI_TRACE") {
            Ok(path) if !path.is_empty() => {
                self.enable();
                let _ = self.set_sink_path(&path);
                true
            }
            _ => false,
        }
    }

    /// A point-in-time snapshot of every span accumulator and counter.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            phases: Phase::ALL
                .iter()
                .enumerate()
                .map(|(i, &p)| PhaseStat {
                    phase: p.name(),
                    calls: self.span_calls[i].load(Ordering::Relaxed),
                    total_ns: self.span_ns[i].load(Ordering::Relaxed),
                })
                .collect(),
            counters: CounterId::ALL
                .iter()
                .map(|&c| CounterStat { name: c.name(), value: self.get(c) })
                .collect(),
        }
    }
}

/// RAII span timer returned by [`Collector::span`]; records the elapsed
/// wall-time on drop.
pub struct SpanGuard<'a> {
    collector: &'a Collector,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.collector.finish_span(self.phase, ns);
        }
    }
}

/// The process-wide collector. Disabled until the CLI's `--trace` flag or
/// `RSTI_TRACE` enables it.
pub fn global() -> &'static Collector {
    static GLOBAL: OnceLock<Collector> = OnceLock::new();
    GLOBAL.get_or_init(Collector::new)
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One phase's accumulated span statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Stable phase name.
    pub phase: &'static str,
    /// Completed spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u64,
}

/// One counter's value.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterStat {
    /// Stable counter name.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// A point-in-time view of the registry, with stable serialized field
/// names (`phases[].{phase,calls,total_ns}`, `counters[].{name,value}` —
/// see the golden test).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Span accumulators, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStat>,
    /// Counters, in [`CounterId::ALL`] order.
    pub counters: Vec<CounterStat>,
}

impl TelemetrySnapshot {
    /// Serializes the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\":\"{}\",\"calls\":{},\"total_ns\":{}}}",
                    p.phase, p.calls, p.total_ns
                )
            })
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|c| format!("{{\"name\":\"{}\",\"value\":{}}}", c.name, c.value))
            .collect();
        format!(
            "{{\"phases\":[{}],\"counters\":[{}]}}",
            phases.join(","),
            counters.join(",")
        )
    }

    /// Value of a counter by stable name (0 when unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Total nanoseconds recorded for a phase by stable name.
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases.iter().find(|p| p.phase == name).map_or(0, |p| p.total_ns)
    }

    /// Renders the snapshot as the human tables `rsti profile` prints.
    pub fn render_tables(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<16} {:>8} {:>14}\n", "phase", "calls", "total ms"));
        for p in &self.phases {
            if p.calls == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<16} {:>8} {:>14.3}\n",
                p.phase,
                p.calls,
                p.total_ns as f64 / 1e6
            ));
        }
        out.push_str(&format!("\n{:<20} {:>14}\n", "counter", "value"));
        for c in &self.counters {
            if c.value == 0 {
                continue;
            }
            out.push_str(&format!("{:<20} {:>14}\n", c.name, c.value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A sink that appends into a shared buffer, for asserting JSONL output.
    struct VecSink(Arc<StdMutex<Vec<u8>>>);
    impl Write for VecSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::new();
        c.add(CounterId::SignsInserted, 5);
        {
            let _s = c.span(Phase::Parse);
        }
        let snap = c.snapshot();
        assert_eq!(snap.counter("signs_inserted"), 0);
        assert_eq!(snap.phase_ns("parse"), 0);
        assert_eq!(snap.phases[0].calls, 0);
    }

    #[test]
    fn counters_and_spans_accumulate_when_enabled() {
        let c = Collector::new();
        c.enable();
        c.add(CounterId::VmPacSigns, 3);
        c.add(CounterId::VmPacSigns, 4);
        {
            let _s = c.span(Phase::Analyze);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = c.snapshot();
        assert_eq!(snap.counter("vm_pac_signs"), 7);
        assert!(snap.phase_ns("analyze") > 0);
        c.reset();
        assert_eq!(c.snapshot().counter("vm_pac_signs"), 0);
    }

    #[test]
    fn collector_is_thread_safe() {
        let c = Arc::new(Collector::new());
        c.enable();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add(CounterId::QarmaCalls, 1);
                    }
                });
            }
        });
        assert_eq!(c.get(CounterId::QarmaCalls), 8000);
    }

    #[test]
    fn events_serialize_to_valid_jsonl_shapes() {
        let rec = AuditRecord {
            mechanism: "RSTI-STWC".into(),
            modifier: 0xdead_beef,
            site: "on_load".into(),
            func: "dispatch".into(),
            line: 12,
            inst: "pac.auth".into(),
            detail: "found 0x0, expected \"0x7\"".into(),
        };
        let j = rec.to_json();
        assert!(j.starts_with("{\"type\":\"violation\""), "{j}");
        assert!(j.contains("\"mechanism\":\"RSTI-STWC\""), "{j}");
        assert!(j.contains("\\\"0x7\\\""), "escaped quotes: {j}");
        let span = Event::Span { phase: Phase::VmRun, ns: 42 }.to_json();
        assert_eq!(span, "{\"type\":\"span\",\"phase\":\"vm_run\",\"ns\":42}");
        let end = Event::RunEnd { insts: 1, cycles: 2, pac_signs: 3, pac_auths: 4, status: "exit: 0" }
            .to_json();
        assert!(end.contains("\"status\":\"exit: 0\""), "{end}");
    }

    #[test]
    fn sink_receives_events_line_per_event() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let c = Collector::new();
        c.enable();
        c.set_sink(Box::new(VecSink(Arc::clone(&buf))));
        c.emit(&Event::Counter { id: CounterId::AuthsElidedDom, delta: 9 });
        {
            let _s = c.span(Phase::Optimize);
        }
        c.clear_sink();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"auths_elided_dom\""));
        assert!(lines[1].contains("\"phase\":\"optimize\""));
    }

    /// A sink whose writes always fail, for the error-surfacing contract.
    struct FailSink;
    impl Write for FailSink {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_write_failures_are_counted_not_swallowed() {
        let c = Collector::new();
        c.enable();
        c.set_sink(Box::new(FailSink));
        assert_eq!(c.get(CounterId::TraceSinkErrors), 0);
        c.emit(&Event::Counter { id: CounterId::VmTraps, delta: 1 });
        c.emit(&Event::Span { phase: Phase::Parse, ns: 1 });
        assert_eq!(c.get(CounterId::TraceSinkErrors), 2, "each dropped line counted");
        // The failure never propagates: emit returned normally twice.
    }

    /// A sink that records write() call boundaries, to pin the
    /// one-write_all-per-line contract that keeps concurrent emitters from
    /// interleaving partial lines.
    struct ChunkSink(Arc<StdMutex<Vec<Vec<u8>>>>);
    impl Write for ChunkSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_event_is_a_single_complete_write() {
        let chunks = Arc::new(StdMutex::new(Vec::new()));
        let c = Arc::new(Collector::new());
        c.enable();
        c.set_sink(Box::new(ChunkSink(Arc::clone(&chunks))));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..50 {
                        c.emit(&Event::Span { phase: Phase::VmRun, ns: t * 1000 + i });
                    }
                });
            }
        });
        let chunks = chunks.lock().unwrap();
        assert_eq!(chunks.len(), 200, "one write per event");
        for ch in chunks.iter() {
            let line = std::str::from_utf8(ch).unwrap();
            assert!(line.starts_with("{\"type\":\"span\""), "complete line: {line}");
            assert!(line.ends_with("}\n"), "newline-terminated: {line}");
            assert_eq!(line.matches('\n').count(), 1);
        }
    }

    /// Serialization-stability golden test: the snapshot JSON's field names
    /// and counter/phase identifiers are a public contract. Any change here
    /// is a trace-format break and must be deliberate.
    #[test]
    fn snapshot_json_field_names_are_stable() {
        let c = Collector::new();
        c.enable();
        c.add(CounterId::SignsInserted, 1);
        let json = c.snapshot().to_json();
        // Top-level shape.
        assert!(json.starts_with("{\"phases\":["), "{json}");
        assert!(json.contains("],\"counters\":["), "{json}");
        // Per-entry field names.
        assert!(json.contains("{\"phase\":\"parse\",\"calls\":0,\"total_ns\":0}"), "{json}");
        assert!(json.contains("{\"name\":\"signs_inserted\",\"value\":1}"), "{json}");
        // The full stable identifier sets.
        for p in Phase::ALL {
            assert!(json.contains(&format!("\"phase\":\"{}\"", p.name())), "{}", p.name());
        }
        for cid in CounterId::ALL {
            assert!(json.contains(&format!("\"name\":\"{}\"", cid.name())), "{}", cid.name());
        }
        let expected_names = [
            "signs_inserted", "auths_inserted", "auths_elided_block", "auths_elided_dom",
            "auths_hoisted", "auths_elided_ipo", "calls_inlined",
            "summary_kill_refinements", "modifiers_precomputed", "strips_inserted",
            "pp_sites_inserted", "classes_stwc", "classes_stc", "classes_stl",
            "classes_parts", "qarma_calls", "pac_memo_hits", "sched_memo_hits",
            "sched_memo_misses", "vm_runs_interp", "vm_runs_compiled",
            "vm_compiled_blocks", "vm_pac_signs", "vm_pac_auths", "vm_auth_failures",
            "vm_traps", "vm_violations", "vm_attr_runs", "vm_attr_samples",
            "vm_inst_mem", "vm_inst_arith", "vm_inst_call",
            "vm_inst_pac", "vm_inst_branch", "vm_inst_other", "fuzz_seeds_run",
            "fuzz_failures", "fuzz_minimize_attempts", "serve_requests",
            "serve_cache_hits", "serve_cache_misses", "serve_cache_evictions",
            "serve_errors", "trace_sink_errors",
        ];
        let got: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(got, expected_names, "counter taxonomy drifted");
        let expected_phases = [
            "parse", "lower", "collect_facts", "analyze", "instrument", "optimize",
            "vm_compile", "vm_run", "fuzz_gen", "fuzz_minimize",
        ];
        let got: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(got, expected_phases, "phase taxonomy drifted");
    }

    #[test]
    fn render_tables_hides_zero_rows() {
        let c = Collector::new();
        c.enable();
        c.add(CounterId::VmTraps, 2);
        let t = c.snapshot().render_tables();
        assert!(t.contains("vm_traps"));
        assert!(!t.contains("vm_inst_mem"), "{t}");
    }
}
