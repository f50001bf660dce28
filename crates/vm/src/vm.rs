//! The virtual machine: executes (instrumented) IR under the PA model.
//!
//! Execution runs on the image's translated form (see `compile.rs`): one
//! pre-resolved op per instruction, direct-threaded by one driver that
//! charges whole blocks up front or — under reference accounting
//! ([`ExecBackend::Interp`]) and the observers — one op at a time. This
//! file holds the machine state, the loader, the frame protocol, the
//! accounting and observation hooks, and the trap constructors.
//!
//! The VM realizes the paper's threat model (§3):
//!
//! * the **attacker** owns an arbitrary read/write primitive over data
//!   memory ([`Vm::attacker_write`] / [`Vm::attacker_read`]) — the result
//!   of some memory-corruption bug — usable between execution steps;
//! * **DEP** holds: only functions loaded with the module can ever run;
//!   there is no way to introduce code;
//! * the **register file and call stack are out of reach** (shadow-stack /
//!   trusted-kernel assumptions): corruption happens to memory, not to
//!   in-flight values;
//! * **PA keys** live outside the address space entirely.
//!
//! Detection therefore works exactly as on hardware: the attacker can
//! write any bytes anywhere in data memory, but cannot mint a PAC, so a
//! corrupted pointer fails `aut` on its next load ([`Trap::PacAuthFailure`])
//! or — if it never passes through `aut` — faults as a non-canonical
//! address.

use crate::cycles::CostModel;
use crate::mem::{layout, Allocator, MemFault, Memory};
use rsti_core::{
    check_sites, optimize_module, optimize_program_at, CheckSite, GlobalSign, InstrumentStats,
    InstrumentedProgram, MechChoice, Mechanism, OptLevel,
};
use rsti_ir::{
    term_successors, BinOp, CmpOp, FuncId, GlobalInit, Inst, Module, Operand, PacKey,
    PacSite, Scope, Terminator, Type, TypeId, TypeLayout, ValueId,
};
use rsti_pac::{KeyId, PacKeys, PacUnit, VaConfig};
use rsti_telemetry::{
    AuditRecord, CounterId, Event, Histogram, Incident, IncidentEvent, Phase, SignLineage,
    INCIDENT_SCHEMA,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

// Translation into pre-resolved ops and the driver that runs them. Declared as
// a child of this module (rather than a sibling under `lib.rs`) so its
// closures can reach the VM's private state — the register file, the PA
// unit, the audit constructors — without widening any of it beyond this
// file's contract.
#[path = "compile.rs"]
mod compile;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RtVal {
    /// Integer (all widths; `bool` is 0/1).
    I(i64),
    /// Double.
    F(f64),
    /// Pointer — the full 64-bit pattern including PAC/TBI bits.
    P(u64),
}

impl fmt::Display for RtVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtVal::I(v) => write!(f, "{v}"),
            RtVal::F(v) => write!(f, "{v}"),
            RtVal::P(v) => write!(f, "{v:#x}"),
        }
    }
}

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// A PAC authentication failed — RSTI detected pointer corruption.
    PacAuthFailure {
        /// Function where the `aut` executed.
        func: String,
        /// Source line (when debug info is present).
        line: u32,
        /// Which instrumentation site fired.
        site: PacSite,
        /// The PAC found on the pointer.
        found_pac: u64,
        /// The PAC expected for the modifier.
        expected_pac: u64,
    },
    /// A pointer-to-pointer authentication failed (missing/forged CE tag
    /// or metadata).
    PpAuthFailure {
        /// Function where it happened.
        func: String,
        /// Explanation.
        reason: String,
    },
    /// A memory fault (unmapped, read-only, out-of-range) — including
    /// dereferences of poisoned pointers.
    Mem {
        /// Function where it happened.
        func: String,
        /// The fault.
        fault: MemFault,
    },
    /// An indirect call through a non-canonical (PAC-carrying or poisoned)
    /// pointer.
    NonCanonicalCall {
        /// Function where it happened.
        func: String,
        /// The raw pointer.
        ptr: u64,
    },
    /// An indirect call to an address that is not a function.
    CallNonFunction {
        /// Function where it happened.
        func: String,
        /// The target address.
        target: u64,
    },
    /// Integer division by zero.
    DivByZero {
        /// Function where it happened.
        func: String,
    },
    /// The step budget ran out.
    FuelExhausted,
    /// Call depth exceeded the frame limit.
    StackOverflow,
    /// `malloc` arena exhausted.
    HeapExhausted,
    /// Internal inconsistency (verified IR should never reach these).
    BadProgram(String),
}

impl Trap {
    /// Whether this trap is a *defense detection* (an RSTI check fired)
    /// rather than an ordinary crash.
    pub fn is_detection(&self) -> bool {
        matches!(self, Trap::PacAuthFailure { .. } | Trap::PpAuthFailure { .. })
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::PacAuthFailure { func, line, site, found_pac, expected_pac } => write!(
                f,
                "PAC authentication failure in {func}:{line} at {site:?} (found {found_pac:#x}, expected {expected_pac:#x})"
            ),
            Trap::PpAuthFailure { func, reason } => {
                write!(f, "pointer-to-pointer authentication failure in {func}: {reason}")
            }
            Trap::Mem { func, fault } => write!(f, "memory fault in {func}: {fault}"),
            Trap::NonCanonicalCall { func, ptr } => {
                write!(f, "indirect call through non-canonical pointer {ptr:#x} in {func}")
            }
            Trap::CallNonFunction { func, target } => {
                write!(f, "indirect call to non-function {target:#x} in {func}")
            }
            Trap::DivByZero { func } => write!(f, "division by zero in {func}"),
            Trap::FuelExhausted => write!(f, "fuel exhausted"),
            Trap::StackOverflow => write!(f, "stack overflow"),
            Trap::HeapExhausted => write!(f, "heap exhausted"),
            Trap::BadProgram(s) => write!(f, "bad program: {s}"),
        }
    }
}

/// How execution ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// `main` returned with this value.
    Exited(i64),
    /// Execution trapped.
    Trapped(Trap),
}

impl Status {
    /// Whether the program ran to completion.
    pub fn is_exit(&self) -> bool {
        matches!(self, Status::Exited(_))
    }
}

/// A call into an external (uninstrumented) function, as observed by the
/// harness. Attack drivers assert on these to decide whether a payload
/// executed.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtEvent {
    /// External function name.
    pub name: String,
    /// Rendered arguments.
    pub args: Vec<String>,
    /// Whether this external is security-critical (`system`, `exec`,
    /// `mprotect`, `dlopen`, ...) — reaching one with attacker-controlled
    /// state is the attack goal in the Table 1 scenarios.
    pub critical: bool,
}

/// Names treated as security-critical sinks.
pub const CRITICAL_EXTERNALS: &[&str] =
    &["system", "exec", "execve", "mprotect", "dlopen", "ap_get_exec_line", "setuid"];

/// Aggregate results of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Final status.
    pub status: Status,
    /// `print_int` / `print_str` output lines.
    pub output: Vec<String>,
    /// External-call events.
    pub events: Vec<ExtEvent>,
    /// Modelled cycles.
    pub cycles: u64,
    /// Instructions executed.
    pub insts: u64,
    /// PA operations executed (sign, auth, failures).
    pub pac_signs: u64,
    /// Authentications executed.
    pub pac_auths: u64,
    /// Dynamic PA-operation counts per instrumentation site kind, in
    /// [`SITE_ORDER`] order — the runtime profile behind the §6.3.2
    /// instrumentation/overhead correlation.
    pub site_counts: [u64; 6],
    /// Executed instructions by opcode class, in [`OPCLASS_ORDER`] order.
    /// All zero unless telemetry was enabled when the VM was built.
    pub opclass_counts: [u64; 6],
    /// Structured audit record for every RSTI detection trap this run —
    /// always collected (a run traps at most once, so this is free).
    pub audit: Vec<AuditRecord>,
    /// Attribution profile — present only when the image was built with
    /// [`Image::with_attr`]. Deterministic: interp and compiled runs of
    /// the same image produce identical profiles (parity-tested).
    pub attr: Option<Box<AttrProfile>>,
    /// Forensic incident — present only when the image was built with
    /// [`Image::with_record`] *and* the run ended in an RSTI detection
    /// trap. Deterministic and bit-identical across engines (the fuzz
    /// oracle and the parity suite diff it through `PartialEq`).
    pub incident: Option<Box<Incident>>,
}

/// Order of [`ExecResult::site_counts`].
pub const SITE_ORDER: [PacSite; 6] = [
    PacSite::OnStore,
    PacSite::OnLoad,
    PacSite::CastResign,
    PacSite::ArgResign,
    PacSite::ExternalStrip,
    PacSite::NewPointer,
];

fn site_index(site: PacSite) -> usize {
    SITE_ORDER.iter().position(|&s| s == site).expect("covered")
}

/// Names of the opcode classes counted in [`ExecResult::opclass_counts`].
pub const OPCLASS_ORDER: [&str; 6] = ["mem", "arith", "call", "pac", "branch", "other"];

const OPCLASS_MEM: usize = 0;
const OPCLASS_ARITH: usize = 1;
const OPCLASS_CALL: usize = 2;
const OPCLASS_PAC: usize = 3;
const OPCLASS_BRANCH: usize = 4;
const OPCLASS_OTHER: usize = 5;

fn opcode_class(inst: &Inst) -> usize {
    match inst {
        Inst::Alloca { .. } | Inst::Load { .. } | Inst::Store { .. } => OPCLASS_MEM,
        Inst::FieldAddr { .. }
        | Inst::IndexAddr { .. }
        | Inst::BitCast { .. }
        | Inst::Convert { .. }
        | Inst::Bin { .. }
        | Inst::Cmp { .. } => OPCLASS_ARITH,
        Inst::Call { .. } | Inst::CallIndirect { .. } => OPCLASS_CALL,
        Inst::PacSign { .. }
        | Inst::PacAuth { .. }
        | Inst::PacStrip { .. }
        | Inst::PpAdd { .. }
        | Inst::PpSign { .. }
        | Inst::PpAddTbi { .. }
        | Inst::PpAuth { .. } => OPCLASS_PAC,
        Inst::Malloc { .. } | Inst::Free { .. } | Inst::PrintInt { .. } | Inst::PrintStr { .. } => {
            OPCLASS_OTHER
        }
    }
}

/// Builds the trap for a register read outside the frame's window. The
/// load-time id check keeps every register id inside its function's value
/// table, so a checked image never gets here; the read stays total instead
/// of panicking. Kept out of line so the bounds check in the hottest op
/// closures compiles to a branch plus a call into cold code instead of
/// inline `format!` machinery.
#[cold]
#[inline(never)]
fn oob(what: &'static str, idx: usize) -> Trap {
    Trap::BadProgram(format!("{what} {idx} out of range"))
}

#[cold]
#[inline(never)]
fn unreachable_reached(func: &str) -> Trap {
    Trap::BadProgram(format!("reached unreachable in {func}"))
}

/// Which pointer-to-pointer metadata check failed, carried as plain
/// numbers so [`Vm::pp_fail`] can render the messages out of line.
enum PpFail {
    Conflict { ce: u64, had: u64 },
    NotRegistered { ce: u64 },
    MissingTag,
    NotInStore { ce: u64 },
}

fn site_name(site: PacSite) -> &'static str {
    match site {
        PacSite::OnStore => "on_store",
        PacSite::OnLoad => "on_load",
        PacSite::CastResign => "cast_resign",
        PacSite::ArgResign => "arg_resign",
        PacSite::ExternalStrip => "external_strip",
        PacSite::NewPointer => "new_pointer",
    }
}

impl ExecResult {
    /// Whether any critical external was reached.
    pub fn reached_critical(&self) -> bool {
        self.events.iter().any(|e| e.critical)
    }
}

// ---------------------------------------------------------------------------
// Attribution profiling
// ---------------------------------------------------------------------------

/// Per-function exclusive attribution: everything charged while this
/// function's frame was innermost.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncAttr {
    /// Function symbol name.
    pub name: String,
    /// Activations (frames pushed).
    pub calls: u64,
    /// Exclusive model cycles.
    pub cycles: u64,
    /// Exclusive instructions executed.
    pub insts: u64,
    /// Dynamic `pac` (sign) operations.
    pub pac_signs: u64,
    /// Dynamic `aut` operations.
    pub pac_auths: u64,
    /// Runs that trapped while this function was innermost (0 or 1).
    pub traps: u64,
    /// Exclusive cycles spent in `pac`/`aut`/`xpac` instructions (summed
    /// from this function's check sites).
    pub pac_cycles: u64,
    /// Exclusive cycles spent in `pp_*` metadata checks.
    pub pp_cycles: u64,
    /// Inclusive cycles per completed activation, log-bucketed.
    pub incl: Histogram,
}

/// Per-check-site attribution: one PAC-family instruction in the final
/// module, keyed by its [`CheckSite`] identity.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteAttr {
    /// The static site (function/block/instruction/kind/source line).
    pub site: CheckSite,
    /// Dynamic executions.
    pub execs: u64,
    /// Model cycles charged at this site.
    pub cycles: u64,
    /// Sign operations performed here.
    pub signs: u64,
    /// Authentications performed here.
    pub auths: u64,
    /// Traps raised here (0 or 1 per run).
    pub traps: u64,
}

/// The attribution profile of one run: per-function and per-check-site
/// accumulators plus deterministically sampled folded call stacks.
///
/// Everything here is derived from the deterministic cycle model, so two
/// runs of the same image — under either accounting mode — produce
/// bit-identical profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrProfile {
    /// Sampling period (model cycles between call-stack samples).
    pub sample_every: u64,
    /// Call-stack samples taken.
    pub samples: u64,
    /// Per-function accumulators, indexed by [`rsti_ir::FuncId`].
    pub funcs: Vec<FuncAttr>,
    /// Per-check-site accumulators, in site-table order.
    pub sites: Vec<SiteAttr>,
    /// Sampled call paths (outermost frame first, function names) with
    /// sample counts, sorted by path.
    pub folded: Vec<(Vec<String>, u64)>,
}

impl AttrProfile {
    /// The profile's folded call stacks in inferno/flamegraph.pl format.
    pub fn folded_lines(&self) -> String {
        rsti_telemetry::to_folded(&self.folded)
    }

    /// Function indices sorted hottest-first by exclusive cycles.
    pub fn ranked_funcs(&self) -> Vec<usize> {
        let mut order: Vec<usize> =
            (0..self.funcs.len()).filter(|&i| self.funcs[i].cycles > 0).collect();
        order.sort_by(|&a, &b| {
            self.funcs[b]
                .cycles
                .cmp(&self.funcs[a].cycles)
                .then_with(|| self.funcs[a].name.cmp(&self.funcs[b].name))
        });
        order
    }
}

/// Default sampling period: fine enough to resolve call paths on the
/// nbench/NGINX workloads (~hundreds of samples per run), coarse enough
/// that sampling stays a rounding error next to per-op attribution.
pub const DEFAULT_ATTR_SAMPLE_EVERY: u64 = 4096;

/// `OpCharge::site` / site-lookup sentinel: not a check site.
pub(crate) const NO_SITE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, Default)]
struct SiteStat {
    execs: u64,
    cycles: u64,
    signs: u64,
    auths: u64,
    traps: u64,
}

#[derive(Debug, Clone, Default)]
struct FuncStat {
    calls: u64,
    cycles: u64,
    insts: u64,
    signs: u64,
    auths: u64,
    traps: u64,
    incl: Histogram,
}

/// Per-run attribution state, allocated only when [`Image::attr`] is on.
///
/// Attribution observes the run at exactly the points both accounting
/// modes share — `push_frame`, the return epilogue `exec_ret`, the per-op
/// charge sites, and `charge_block_transfer` — so the two modes attribute
/// identically by construction (attribution forces every block through
/// the per-op loop; see `exec_ops`).
struct AttrState {
    /// The static check-site table, in deterministic scan order — the ids
    /// the translation bakes into each op's `OpCharge::site`.
    sites: Vec<CheckSite>,
    site_stats: Vec<SiteStat>,
    /// Indexed by function id.
    funcs: Vec<FuncStat>,
    /// Checkpoint of the run totals at the last frame transition; the
    /// delta since is charged to the outgoing function.
    last_cycles: u64,
    last_insts: u64,
    last_signs: u64,
    last_auths: u64,
    /// Deterministic sampler: a call-stack sample is due each time
    /// `Vm::cycles` crosses a multiple of `sample_every`.
    sample_every: u64,
    next_sample: u64,
    n_samples: u64,
    samples: HashMap<Vec<u32>, u64>,
}

impl AttrState {
    fn new(module: &Module, sample_every: u64) -> Box<Self> {
        let sites = check_sites(module);
        let n_sites = sites.len();
        let sample_every = sample_every.max(1);
        Box::new(AttrState {
            sites,
            site_stats: vec![SiteStat::default(); n_sites],
            funcs: vec![FuncStat::default(); module.funcs.len()],
            last_cycles: 0,
            last_insts: 0,
            last_signs: 0,
            last_auths: 0,
            sample_every,
            next_sample: sample_every,
            n_samples: 0,
            samples: HashMap::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Flight recorder (violation forensics)
// ---------------------------------------------------------------------------

/// Flight-recorder ring capacity. Sized so that the recorded
/// window comfortably spans one pointer round trip (sign → store → scope
/// churn → load → auth) on every Table 1 scenario while the ring stays a
/// few KiB of plain `Copy` rows.
pub const DEFAULT_RECORD_CAP: usize = 64;

/// Key-code sentinel: no PA key involved in the event.
const KEY_NONE: u8 = u8::MAX;

fn key_code(k: KeyId) -> u8 {
    match k {
        KeyId::Ia => 0,
        KeyId::Ib => 1,
        KeyId::Da => 2,
        KeyId::Db => 3,
        KeyId::Ga => 4,
    }
}

fn key_label(code: u8) -> &'static str {
    match code {
        0 => "ia",
        1 => "ib",
        2 => "da",
        3 => "db",
        4 => "ga",
        _ => "",
    }
}

/// The closed pointer-lifecycle event taxonomy the recorder captures.
/// `name()` values are the serialized `IncidentEvent::kind` contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecKind {
    Sign,
    Auth,
    AuthFail,
    Strip,
    Load,
    Store,
    Free,
    ScopeEnter,
    ScopeExit,
    AttackerWrite,
}

impl RecKind {
    fn name(self) -> &'static str {
        match self {
            RecKind::Sign => "sign",
            RecKind::Auth => "auth",
            RecKind::AuthFail => "auth_fail",
            RecKind::Strip => "strip",
            RecKind::Load => "load",
            RecKind::Store => "store",
            RecKind::Free => "free",
            RecKind::ScopeEnter => "scope_enter",
            RecKind::ScopeExit => "scope_exit",
            RecKind::AttackerWrite => "attacker_write",
        }
    }
}

/// One compact ring row. Ids instead of names: resolution to an
/// [`IncidentEvent`] happens once, at incident synthesis.
#[derive(Debug, Clone, Copy)]
struct RecEvent {
    cycle: u64,
    kind: RecKind,
    /// Function id at event time ([`u32::MAX`] when no frame is live).
    func: u32,
    /// Check-site id for PAC-family events, else [`NO_SITE`].
    site: u32,
    addr: u64,
    value: u64,
    modifier: u64,
    key: u8,
}

/// Per-run flight-recorder state, allocated only when [`Image::record`]
/// is on. Mirrors [`AttrState`]'s discipline: events are captured at
/// logic both accounting modes share (or at mirrored points with
/// identical arguments), timestamps come from the deterministic cycle
/// model, and the recorder forces every block through the per-op loop —
/// so interp and compiled runs record bit-identical windows.
struct RecState {
    /// The static check-site table, in deterministic scan order (the same
    /// ids the attribution profiler uses).
    sites: Vec<CheckSite>,
    /// Bounded ring of recent events; `next` is the overwrite cursor
    /// (the oldest row) once the ring is full.
    ring: Vec<RecEvent>,
    next: usize,
    dropped: u64,
    /// Check-site id of the op currently executing (staged by the per-op
    /// loop before each PAC-family op; read by sign/auth/strip events).
    cur_site: u32,
    /// The synthesized incident, set at the first detection trap.
    incident: Option<Box<Incident>>,
}

impl RecState {
    fn new(module: &Module) -> Box<Self> {
        Box::new(RecState {
            sites: check_sites(module),
            ring: Vec::with_capacity(DEFAULT_RECORD_CAP),
            next: 0,
            dropped: 0,
            cur_site: NO_SITE,
            incident: None,
        })
    }

    fn push(&mut self, ev: RecEvent) {
        if self.ring.len() < DEFAULT_RECORD_CAP {
            self.ring.push(ev);
        } else {
            self.ring[self.next] = ev;
            self.next = (self.next + 1) % DEFAULT_RECORD_CAP;
            self.dropped += 1;
        }
    }

    /// The ring's contents oldest-first.
    fn in_order(&self) -> Vec<RecEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.next..]);
        out.extend_from_slice(&self.ring[..self.next]);
        out
    }
}

/// Resolves a check-site id to its stable label (empty for [`NO_SITE`]
/// or an out-of-table id).
fn site_label(sites: &[CheckSite], id: u32) -> String {
    if id == NO_SITE {
        return String::new();
    }
    sites.get(id as usize).map_or_else(String::new, |s| s.label())
}

/// How RSTI checks are enforced at runtime.
///
/// The paper (§7, "RSTI with mechanisms other than PAC") argues the
/// policy is enforcement-agnostic: "The enforcement can be done with any
/// mechanism that can utilize the scope-type information. For example,
/// CCFI relies on classes of pointers and an AES cryptographic function
/// to generate MACs that get stored alongside the object." Both styles
/// are implemented:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// ARMv8.3-style: the PAC lives in the pointer's unused top bits.
    #[default]
    PacInPointer,
    /// CCFI-style: a keyed MAC over (pointer, modifier) is kept in a
    /// shadow table indexed by the slot address; pointers stay canonical.
    MacTable,
}

/// How the one driver charges the image's blocks.
///
/// Both modes run the same translation of the image — each basic block
/// compiled once into a chain of closures with pre-resolved operand slots
/// — through the same direct-threaded driver, and differ only in
/// accounting. They are observably identical (same traps, same audit
/// records, same cycle/instruction accounting, same telemetry counters),
/// which the parity tests and the fuzz matrix (every mechanism × opt
/// level under both) check: `Interp` is the reference the block
/// pre-charge and its rollback are held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Reference accounting: block pre-charge off, so every op is
    /// fuel-checked, charged and position-committed before it runs
    /// (`interp` on the wire and the command line).
    Interp,
    /// Block pre-charge (the default): straight-line runs are charged
    /// from cycle prefix sums and per-block opclass totals, the
    /// unexecuted suffix is rolled back when an op traps or transfers
    /// control, and frame positions are committed only where observed.
    #[default]
    Compiled,
}

impl ExecBackend {
    /// Short stable label (`interp` / `compiled`) for tables and configs.
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Interp => "interp",
            ExecBackend::Compiled => "compiled",
        }
    }
}

/// Lazily-built translated code, shared by clones of an [`Image`] and by
/// both accounting modes, and revalidated against the image's current
/// cost model and enforcement backend (the two knobs folded into the
/// closures) on every use — mutating a pub field after a run cannot leave
/// stale code behind.
pub(crate) struct CompiledCache(Mutex<Option<Arc<compile::CompiledModule>>>);

impl CompiledCache {
    fn empty() -> Self {
        CompiledCache(Mutex::new(None))
    }
}

impl fmt::Debug for CompiledCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.0.lock() {
            Ok(g) if g.is_some() => "compiled",
            Ok(_) => "empty",
            Err(_) => "poisoned",
        };
        write!(f, "CompiledCache({state})")
    }
}

impl Clone for CompiledCache {
    fn clone(&self) -> Self {
        // Share the already-compiled code. A poisoned lock is recovered,
        // not treated as empty: the `Option<Arc<CompiledModule>>` inside is
        // always valid (the panic happened in some other holder's critical
        // section, e.g. mid-`compile_module`, which writes the slot only on
        // success), and cloning `None` here would silently force every
        // future clone of a once-panicked image to recompile forever.
        let inner = self.0.lock().unwrap_or_else(|p| p.into_inner()).clone();
        CompiledCache(Mutex::new(inner))
    }
}

/// A loadable program image: module + runtime configuration.
///
/// The module is held behind an [`Arc`] so that building an image — and
/// cloning one per measurement run — never deep-copies the program. The
/// measurement harness constructs hundreds of images per Fig. 9 sweep;
/// with the shared module an `Image` is a handful of plain-data fields.
#[derive(Debug, Clone)]
pub struct Image {
    /// The (possibly instrumented) module, shared between images and runs.
    pub module: Arc<Module>,
    /// Mechanism, `None` for an uninstrumented baseline image.
    pub mechanism: Option<Mechanism>,
    /// Globals the loader signs before `main`.
    pub global_signing: Vec<GlobalSign>,
    /// PA keys (per-process, kernel-generated).
    pub keys: PacKeys,
    /// VA layout.
    pub va: VaConfig,
    /// Cycle model.
    pub cost: CostModel,
    /// Heap arena size in bytes.
    pub heap_size: u64,
    /// Stack arena size in bytes.
    pub stack_size: u64,
    /// Enforcement backend.
    pub backend: Backend,
    /// Whether return addresses are protected out-of-band (the paper's §3
    /// shadow-stack assumption; default `true`). With `false`, each frame
    /// spills its return address into attacker-reachable stack memory and
    /// honours whatever is there on return — the classic ROP surface RSTI
    /// explicitly does *not* cover.
    pub shadow_stack: bool,
    /// Accounting mode of the driver (default [`ExecBackend::Compiled`]).
    pub exec: ExecBackend,
    /// Attribution profiling: per-function/per-site accounting plus the
    /// deterministic call-stack sampler. Off by default and provably
    /// inert — with `false`, runs charge not one extra cycle/inst and the
    /// VM's only cost is a handful of is-none branches.
    pub attr: bool,
    /// Sampling period for the call-path profiler, in model cycles
    /// (used only while `attr` is on).
    pub attr_sample_every: u64,
    /// Flight recorder: a bounded ring of pointer-lifecycle events plus
    /// incident synthesis at the first detection trap. Off by default and
    /// inert like `attr` — with `false`, runs charge not one extra
    /// cycle/inst and the VM's only cost is a handful of is-none
    /// branches.
    pub record: bool,
    /// Cache of translated code, filled on the first run (or by
    /// [`Image::precompile`]).
    compiled: CompiledCache,
}

impl Image {
    /// Switches the enforcement backend (builder style).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Switches the driver's accounting mode (builder style).
    pub fn with_exec(mut self, exec: ExecBackend) -> Self {
        self.exec = exec;
        self
    }

    /// Disables the shadow stack (builder style) — for experiments that
    /// demonstrate why the paper's §3 assumption matters.
    pub fn without_shadow_stack(mut self) -> Self {
        self.shadow_stack = false;
        self
    }

    /// Enables the attribution profiler (builder style) with the default
    /// sampling period.
    pub fn with_attr(mut self) -> Self {
        self.attr = true;
        self
    }

    /// Enables the attribution profiler with a custom sampling period in
    /// model cycles (builder style). `0` is clamped to 1.
    pub fn with_attr_sampling(mut self, every: u64) -> Self {
        self.attr = true;
        self.attr_sample_every = every.max(1);
        self
    }

    /// Arms the flight recorder (builder style) with a
    /// [`DEFAULT_RECORD_CAP`]-entry ring: a trapped run then carries an
    /// [`Incident`] on its [`ExecResult`].
    pub fn with_record(mut self) -> Self {
        self.record = true;
        self
    }

    /// Forces the lazy translation every run executes to run now.
    /// Benches call this outside their timed region so throughput numbers
    /// measure steady-state execution rather than the one-time per-image
    /// translation.
    pub fn precompile(&self) {
        let _ = self.compiled();
    }

    /// The translated form of this image (or, for a malformed image, the
    /// id check's failure), building it on first use under either
    /// accounting mode (timed as [`Phase::VmCompile`], counted in
    /// `vm_compiled_blocks`). Cached code is reused only while the image's
    /// cost model and enforcement backend still match the fingerprint it
    /// was compiled under.
    pub(crate) fn compiled(&self) -> Arc<compile::CompiledModule> {
        let mut guard = self.compiled.0.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(code) = guard.as_ref() {
            if code.fingerprint == (self.cost, self.backend) {
                return Arc::clone(code);
            }
        }
        let tel = rsti_telemetry::global();
        let code = {
            let _span = tel.span(Phase::VmCompile);
            Arc::new(compile::compile_module(self))
        };
        tel.add(CounterId::VmCompiledBlocks, code.n_blocks);
        *guard = Some(Arc::clone(&code));
        code
    }

    /// Poisons the compiled-cache lock the way a real panic during
    /// compilation would: a thread panics while holding the guard. For the
    /// poison-recovery regression tests.
    #[cfg(test)]
    pub(crate) fn poison_compiled_lock_for_tests(&self) {
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = self.compiled.0.lock().unwrap_or_else(|p| p.into_inner());
                panic!("poisoning the compiled-cache lock (expected test panic)");
            })
            .join()
        });
        assert!(result.is_err(), "the poisoning thread must have panicked");
        assert!(self.compiled.0.lock().is_err(), "lock must now be poisoned");
    }
}

impl Image {
    /// Builds an image from an instrumented program.
    ///
    /// The PARTS baseline pays a higher per-PAC-op cost: the paper
    /// attributes PARTS' much larger overhead (19.5% vs RSTI's 1.54% on
    /// nbench) to engineering, not extra checks — "using LLVM ptrauth
    /// intrinsics, running the pass in the backend, using LTO and -O2
    /// optimizations allowed our compiler to produce more optimized code"
    /// (§6.3.2). We model PARTS' non-inlined runtime calls and spills as
    /// `pac_op = 22` cycles (PA op + call + two memory accesses) instead
    /// of RSTI's inlined 7.
    pub fn from_instrumented(p: &InstrumentedProgram) -> Self {
        Self::instrumented_parts(Arc::new(p.module.clone()), p.mechanism, p.global_signing.clone())
    }

    /// Builds an image from an instrumented program, taking ownership —
    /// the zero-copy path for harnesses that instrument once per run.
    pub fn from_instrumented_owned(p: InstrumentedProgram) -> Self {
        let mechanism = p.mechanism;
        Self::instrumented_parts(Arc::new(p.module), mechanism, p.global_signing)
    }

    fn instrumented_parts(
        module: Arc<Module>,
        mechanism: Mechanism,
        global_signing: Vec<GlobalSign>,
    ) -> Self {
        let mut cost = CostModel::default();
        if mechanism == Mechanism::Parts {
            cost.pac_op = 22;
            cost.pp_pac = 24;
        }
        Image {
            module,
            mechanism: Some(mechanism),
            global_signing,
            keys: PacKeys::test_keys(),
            va: VaConfig::paper_default(),
            cost,
            heap_size: 4 << 20,
            stack_size: 4 << 20,
            backend: Backend::PacInPointer,
            shadow_stack: true,
            exec: ExecBackend::Compiled,
            attr: false,
            attr_sample_every: DEFAULT_ATTR_SAMPLE_EVERY,
            record: false,
            compiled: CompiledCache::empty(),
        }
    }

    /// Builds an uninstrumented baseline image.
    pub fn baseline(m: &Module) -> Self {
        Self::baseline_shared(Arc::new(m.clone()))
    }

    /// Builds an uninstrumented baseline image around an already-shared
    /// module — no copy at all.
    pub fn baseline_shared(module: Arc<Module>) -> Self {
        Image {
            module,
            mechanism: None,
            global_signing: Vec::new(),
            keys: PacKeys::test_keys(),
            va: VaConfig::paper_default(),
            cost: CostModel::default(),
            heap_size: 4 << 20,
            stack_size: 4 << 20,
            backend: Backend::PacInPointer,
            shadow_stack: true,
            exec: ExecBackend::Compiled,
            attr: false,
            attr_sample_every: DEFAULT_ATTR_SAMPLE_EVERY,
            record: false,
            compiled: CompiledCache::empty(),
        }
    }

    /// Builds an uninstrumented baseline image, taking ownership of the
    /// module (zero-copy).
    pub fn baseline_owned(m: Module) -> Self {
        Self::baseline_shared(Arc::new(m))
    }

    /// The one build recipe for a (program, defense, opt level) cell:
    /// instruments `m` as `choice` selects, then optimizes at `level`
    /// ([`Image::optimized`]). The baseline goes through the same level,
    /// so an overhead is always measured against a baseline optimized
    /// alike. Returns the instrumentation counters (`None` for the
    /// baseline).
    pub fn build(
        m: &Module,
        choice: impl Into<MechChoice>,
        level: OptLevel,
    ) -> (Self, Option<InstrumentStats>) {
        let p = choice.into().instrument(m);
        let stats = p.as_ref().map(|p| p.stats);
        (Self::optimized(m, p, level), stats)
    }

    /// The optimizing half of [`Image::build`], for callers that time
    /// instrumentation on its own: `p` is `m` instrumented, or `None` for
    /// the baseline. A baseline is `optimize_module` on a copy of `m`; a
    /// program goes through `optimize_program_at` (telemetry span and
    /// per-stage counters). Either way the image owns the result, trimmed
    /// of the spare capacity the passes left ([`Module::shrink_to_fit`]):
    /// `serve` caches these images.
    pub fn optimized(m: &Module, p: Option<InstrumentedProgram>, level: OptLevel) -> Self {
        match p {
            None => {
                let mut m = m.clone();
                optimize_module(&mut m, level);
                m.shrink_to_fit();
                Self::baseline_owned(m)
            }
            Some(mut p) => {
                optimize_program_at(&mut p, level);
                p.module.shrink_to_fit();
                Self::from_instrumented_owned(p)
            }
        }
    }
}

struct Frame {
    func: FuncId,
    block: usize,
    idx: usize,
    /// Start of this frame's register window in the VM-wide flat file
    /// ([`Vm::regs`]). Keeping one contiguous `Vec` for every live frame
    /// (instead of a `Vec` per frame) makes a register access two
    /// independent loads off the `Vm` pointer rather than a dependent
    /// chain through `frames.last()` — the single hottest path in the
    /// driver.
    reg_base: usize,
    stack_mark: u64,
    ret_to: Option<ValueId>,
    /// Per-value alloca address cache, indexed and generation-tagged like
    /// the register file (an entry is live only when its tag matches
    /// `gen`).
    alloca_cache: Vec<(u64, u64)>,
    /// The activation's generation tag (globally unique, from
    /// [`Vm::gen_counter`]): a register or alloca-cache slot is defined
    /// only when its tag matches, so stale slots left behind by popped
    /// frames or recycled buffers need no memset.
    gen: u64,
    /// Without a shadow stack: the in-memory slot holding the return
    /// address, and the value it is supposed to contain.
    ret_slot: Option<(u64, u64)>,
    /// `Vm::cycles` at frame push — the attribution profiler's inclusive
    /// activation timer (a plain store; kept even with attribution off).
    entry_cycles: u64,
}

impl Frame {
    fn blank() -> Self {
        Frame {
            func: FuncId(0),
            block: 0,
            idx: 0,
            reg_base: 0,
            stack_mark: 0,
            ret_to: None,
            alloca_cache: Vec::new(),
            gen: 0,
            ret_slot: None,
            entry_cycles: 0,
        }
    }
}

/// The virtual machine.
pub struct Vm<'img> {
    img: &'img Image,
    /// The image's translation, taken from its cache at load.
    code: Arc<compile::CompiledModule>,
    /// Memory (attacker-reachable data lives here).
    pub mem: Memory,
    alloc: Allocator,
    pac: PacUnit,
    pp_table: HashMap<u8, u64>,
    frames: Vec<Frame>,
    /// The flat register file: every live frame's window, contiguous.
    /// `regs.len()` is a high-water mark — slots past [`Vm::reg_top`]
    /// hold stale generations and are never considered defined.
    regs: Vec<(u64, RtVal)>,
    /// End of the top frame's register window (the next push's base).
    reg_top: usize,
    /// Mirror of the top frame's `reg_base`, kept in `Vm` so the hot
    /// accessors skip the `frames.last()` chain.
    reg_base: usize,
    /// Mirror of the top frame's `gen`.
    cur_gen: u64,
    /// Source of globally unique activation generations.
    gen_counter: u64,
    /// Precomputed from `img.va` at construction: the bits that make a
    /// pointer non-canonical, and the translated-address mask — so the
    /// per-access canonicality check in [`Vm::deref_addr`] is two ANDs
    /// instead of a walk over the VA configuration.
    noncanon_mask: u64,
    addr_mask: u64,
    /// Retired frames kept for reuse: their `alloca_cache` buffers are
    /// recycled so steady-state call/return performs no heap allocation.
    frame_pool: Vec<Frame>,
    output: Vec<String>,
    events: Vec<ExtEvent>,
    cycles: u64,
    insts: u64,
    fuel: u64,
    global_addrs: Vec<u64>,
    stack_top: u64,
    status: Option<Status>,
    paused: bool,
    /// MacTable backend: slot address → MAC of (pointer, modifier).
    /// Lives outside the attacker-addressable space, like the PA keys —
    /// CCFI's inline MACs would instead be copyable alongside the object,
    /// a weakening we do not model.
    mac_table: HashMap<u64, u64>,
    /// MacTable backend: MAC staged by a `PacSign` awaiting its store, or
    /// consumed by an immediately following `PacAuth` (register-domain
    /// re-sign round trips).
    pending_mac: Option<u64>,
    /// MacTable backend: slot address of the last pointer load.
    last_ptr_load: Option<u64>,
    site_counts: [u64; 6],
    /// Scratch buffer for evaluated call arguments, reused across calls so
    /// argument passing allocates nothing in steady state.
    call_args: Vec<RtVal>,
    /// Snapshot of the global collector's enabled flag, taken at load:
    /// opcode-class counting (per op, or per block on the fast path)
    /// branches on this plain bool instead of re-reading the atomic.
    trace_enabled: bool,
    /// Executed instructions by opcode class ([`OPCLASS_ORDER`]); counted
    /// only while `trace_enabled`.
    opclass: [u64; 6],
    /// Violation audit log: one record per RSTI detection trap. Always
    /// collected — a run traps at most once, so the cost is nil.
    audit: Vec<AuditRecord>,
    /// Guards the once-per-run flush into the global collector.
    telemetry_flushed: bool,
    /// Attribution profiling state — `None` (one pointer-null branch per
    /// hook) unless the image enables it.
    attr: Option<Box<AttrState>>,
    /// Flight-recorder state — `None` (one pointer-null branch per hook)
    /// unless the image arms it.
    rec: Option<Box<RecState>>,
}

/// The `(function, block)` pairs at which a copy of `w`'s body begins:
/// `w`'s block 0, and each block whose code carries `Scope::Function(w)`
/// and is entered from outside a copy of `w` — an inlined copy keeps its
/// callee's [`rsti_ir::DebugLoc`]s. A walk from each entry block tracks
/// the chain of scopes the code is nested in: a branch into a scope on the
/// chain returns to it (the continuation after an inlined call), a branch
/// into any other scope enters a copy of it.
fn scope_entries(m: &Module, w: FuncId) -> HashSet<(FuncId, usize)> {
    let mut entries = HashSet::from([(w, 0)]);
    for (fi, f) in m.funcs.iter().enumerate().filter(|(_, f)| !f.blocks.is_empty()) {
        let scope = |b: usize| {
            let b = &f.blocks[b];
            b.insts.iter().find_map(|n| n.loc).or(b.term_loc).map(|l| l.scope)
        };
        let mut chain: Vec<Option<Vec<Scope>>> = vec![None; f.blocks.len()];
        chain[0] = Some(scope(0).into_iter().collect());
        let mut work = vec![0];
        while let Some(b) = work.pop() {
            for s in term_successors(&f.blocks[b].term).into_iter().map(|s| s.0 as usize) {
                if chain[s].is_some() {
                    continue;
                }
                let mut c = chain[b].clone().unwrap_or_default();
                if let Some(sc) = scope(s) {
                    match c.iter().position(|&x| x == sc) {
                        Some(i) => c.truncate(i + 1),
                        None if sc == Scope::Function(w.0) => {
                            entries.insert((FuncId(fi as u32), s));
                            c.push(sc);
                        }
                        None => c.push(sc),
                    }
                }
                chain[s] = Some(c);
                work.push(s);
            }
        }
    }
    entries
}

/// Result of [`Vm::run_to_function`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunStop {
    /// The watched function was entered; the VM is paused at its first
    /// instruction.
    Entered,
    /// Execution ended before reaching the function.
    Done(Status),
}

impl<'img> Vm<'img> {
    /// Loads an image: checks its ids (once per image, with its
    /// translation), lays out globals and strings, applies load-time
    /// signing, and prepares to call `main`. A malformed image — an id that
    /// does not resolve, no `main`, or data demands beyond what the VM
    /// hosts — yields a VM already trapped rather than a panic.
    pub fn new(img: &'img Image) -> Self {
        let m = &img.module;
        let code = img.compiled();
        let mut pac = PacUnit::new(&img.keys, img.va);
        let mut mac_table = HashMap::new();
        let loaded = match &code.funcs {
            Ok(_) => load_data(img, &mut pac, &mut mac_table),
            Err(msg) => Err(Trap::BadProgram(msg.clone())),
        };
        let (mem, gaddr, load_trap) = match loaded {
            Ok((mem, gaddr)) => (mem, gaddr, None),
            Err(t) => {
                let mem = Memory::new(8, 8, 64, 64).expect("minimal layout fits");
                (mem, Vec::new(), Some(t))
            }
        };

        let mut vm = Vm {
            img,
            code,
            mem,
            alloc: Allocator::new(img.heap_size),
            pac,
            pp_table: HashMap::new(),
            frames: Vec::new(),
            regs: Vec::new(),
            reg_top: 0,
            reg_base: 0,
            cur_gen: 0,
            gen_counter: 0,
            noncanon_mask: img.va.pac_mask()
                | if img.va.tbi_mask() == 0 { 0xFF00_0000_0000_0000 } else { 0 },
            addr_mask: img.va.addr_mask(),
            frame_pool: Vec::new(),
            output: Vec::new(),
            events: Vec::new(),
            cycles: 0,
            insts: 0,
            fuel: 500_000_000,
            global_addrs: gaddr,
            stack_top: layout::STACK_BASE,
            status: None,
            paused: false,
            mac_table,
            pending_mac: None,
            last_ptr_load: None,
            site_counts: [0; 6],
            call_args: Vec::new(),
            trace_enabled: rsti_telemetry::global().is_enabled(),
            opclass: [0; 6],
            audit: Vec::new(),
            telemetry_flushed: false,
            attr: img.attr.then(|| AttrState::new(&img.module, img.attr_sample_every)),
            rec: img.record.then(|| RecState::new(&img.module)),
        };
        // A malformed image loads into an already-trapped VM instead of
        // aborting the process: `run` then reports the trap like any other
        // failure, and the audit/telemetry path still sees the run.
        if let Some(t) = load_trap {
            vm.status = Some(Status::Trapped(t));
            return vm;
        }
        match m.func_by_name("main") {
            Some(main) => {
                if let Err(t) = vm.push_frame(main, &[], None) {
                    vm.status = Some(Status::Trapped(t));
                }
            }
            None => {
                vm.status = Some(Status::Trapped(Trap::BadProgram(
                    "module has no `main` function".into(),
                )));
            }
        }
        vm
    }

    /// Sets the step budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    // ---- attacker API ------------------------------------------------------

    /// The attacker's arbitrary-write primitive (threat model §3).
    ///
    /// # Errors
    /// Fails only when the target is outside attacker-reachable memory.
    pub fn attacker_write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let r = self.mem.attacker_write(addr, bytes);
        if r.is_ok() && self.rec.is_some() {
            // The corruption itself lands in the flight-recorder window
            // (first 8 bytes of the payload, little-endian).
            let mut v = [0u8; 8];
            let n = bytes.len().min(8);
            v[..n].copy_from_slice(&bytes[..n]);
            self.rec_plain(RecKind::AttackerWrite, addr, u64::from_le_bytes(v));
        }
        r
    }

    /// Arbitrary-read (information disclosure) primitive.
    ///
    /// # Errors
    /// Fails when the range is unmapped.
    pub fn attacker_read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        self.mem.read(addr, len)
    }

    /// Convenience: attacker write of a u64.
    ///
    /// # Errors
    /// Same as [`Vm::attacker_write`].
    pub fn attacker_write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.attacker_write(addr, &v.to_le_bytes())
    }

    /// Address of a global by name.
    pub fn global_addr(&self, name: &str) -> Option<u64> {
        let gid = self.img.module.global_by_name(name)?;
        self.global_addrs.get(gid.0 as usize).copied()
    }

    /// The code address of a function by name (what an attacker writes
    /// into a hijacked code pointer).
    pub fn func_addr(&self, name: &str) -> Option<u64> {
        let fid = self.img.module.func_by_name(name)?;
        Some(func_address(&self.img.module, fid))
    }

    /// Live heap allocations as (addr, size).
    pub fn heap_live(&self) -> &[(u64, u64)] {
        &self.alloc.live
    }

    /// Freed heap allocations as (addr, size).
    pub fn heap_freed(&self) -> &[(u64, u64)] {
        &self.alloc.freed
    }

    /// The in-memory return-address slot of the innermost frame, when the
    /// shadow stack is disabled (attack experiments).
    pub fn current_ret_slot(&self) -> Option<u64> {
        self.frames.last().and_then(|f| f.ret_slot).map(|(slot, _)| slot)
    }

    // ---- execution ---------------------------------------------------------

    /// Runs to completion.
    pub fn run(&mut self) -> ExecResult {
        self.drive(None);
        self.result()
    }

    /// Runs until a copy of `name`'s body is entered (paused at its first
    /// instruction), or to completion. The pause is by source scope, not
    /// by frame: `name`'s own entry and the entry of every copy the
    /// inliner spliced into a caller both count.
    pub fn run_to_function(&mut self, name: &str) -> RunStop {
        let Some(fid) = self.img.module.func_by_name(name) else {
            return RunStop::Done(Status::Trapped(Trap::BadProgram(format!(
                "no function `{name}`"
            ))));
        };
        self.drive(Some(&scope_entries(&self.img.module, fid)));
        match &self.status {
            None => RunStop::Entered,
            Some(s) => RunStop::Done(s.clone()),
        }
    }

    /// Continues a paused run to completion.
    pub fn finish(&mut self) -> ExecResult {
        self.drive(None);
        self.result()
    }

    /// The accumulated result (meaningful once finished; callable anytime).
    pub fn result(&self) -> ExecResult {
        ExecResult {
            status: self.status.clone().unwrap_or(Status::Trapped(Trap::FuelExhausted)),
            output: self.output.clone(),
            events: self.events.clone(),
            cycles: self.cycles,
            insts: self.insts,
            pac_signs: self.pac.sign_count,
            pac_auths: self.pac.auth_count,
            site_counts: self.site_counts,
            opclass_counts: self.opclass,
            audit: self.audit.clone(),
            attr: self.attr_profile(),
            incident: self.rec.as_deref().and_then(|r| r.incident.clone()),
        }
    }

    // ---- attribution hooks -------------------------------------------------
    //
    // Every hook below sits behind an `attr.is_some()` branch at its call
    // site (or begins with one), so with attribution off the profiler's
    // entire footprint is a few never-taken branches — the inertness the
    // vm_throughput guardrail asserts.

    /// Charges the accounting delta since the last checkpoint to the
    /// current (innermost) function. Called at the frame transitions every
    /// run shares: frame push, return, and end of run.
    fn attr_checkpoint(&mut self) {
        let cur = self.frames.last().map(|f| f.func.0 as usize);
        let (cycles, insts) = (self.cycles, self.insts);
        let (signs, auths) = (self.pac.sign_count, self.pac.auth_count);
        let Some(a) = self.attr.as_deref_mut() else { return };
        if let Some(fi) = cur {
            let f = &mut a.funcs[fi];
            f.cycles += cycles - a.last_cycles;
            f.insts += insts - a.last_insts;
            f.signs += signs - a.last_signs;
            f.auths += auths - a.last_auths;
        }
        a.last_cycles = cycles;
        a.last_insts = insts;
        a.last_signs = signs;
        a.last_auths = auths;
    }

    /// Takes a call-stack sample when `cycles` has crossed the sampling
    /// boundary. Deterministic: the cycle model is deterministic and both
    /// accounting modes call this at the same accounting points (after each per-op
    /// charge and after each block-transfer charge), so the sample set is
    /// a pure function of the image.
    fn attr_maybe_sample(&mut self) {
        let cycles = self.cycles;
        {
            let Some(a) = self.attr.as_deref_mut() else { return };
            if cycles < a.next_sample {
                return;
            }
        }
        let path: Vec<u32> = self.frames.iter().map(|f| f.func.0).collect();
        let a = self.attr.as_deref_mut().expect("checked above");
        *a.samples.entry(path).or_insert(0) += 1;
        a.n_samples += 1;
        a.next_sample = (cycles / a.sample_every + 1) * a.sample_every;
    }

    /// Adds one execution of check site `sid` (the per-op loop calls this
    /// with the site id baked into the op's `OpCharge`).
    pub(crate) fn attr_record_site(&mut self, sid: u32, cost: u64, s0: u64, a0: u64, trapped: bool) {
        let (signs, auths) = (self.pac.sign_count, self.pac.auth_count);
        let a = self.attr.as_deref_mut().expect("attr on");
        let st = &mut a.site_stats[sid as usize];
        st.execs += 1;
        st.cycles += cost;
        st.signs += signs - s0;
        st.auths += auths - a0;
        if trapped {
            st.traps += 1;
        }
    }

    /// End-of-run attribution: charge the tail delta to the function the
    /// run ended in, and attribute the trap (if any) to it.
    fn attr_finalize(&mut self) {
        if self.attr.is_none() {
            return;
        }
        self.attr_checkpoint();
        let cur = self.frames.last().map(|f| f.func.0 as usize);
        let trapped = matches!(self.status, Some(Status::Trapped(_)));
        if let (Some(a), Some(fi), true) = (self.attr.as_deref_mut(), cur, trapped) {
            a.funcs[fi].traps += 1;
        }
    }

    /// Builds the public profile from the run's attribution state.
    fn attr_profile(&self) -> Option<Box<AttrProfile>> {
        let a = self.attr.as_deref()?;
        let m = &self.img.module;
        let sites: Vec<SiteAttr> = a
            .sites
            .iter()
            .zip(&a.site_stats)
            .map(|(site, st)| SiteAttr {
                site: site.clone(),
                execs: st.execs,
                cycles: st.cycles,
                signs: st.signs,
                auths: st.auths,
                traps: st.traps,
            })
            .collect();
        let mut funcs: Vec<FuncAttr> = m
            .funcs
            .iter()
            .zip(&a.funcs)
            .map(|(f, st)| FuncAttr {
                name: f.name.clone(),
                calls: st.calls,
                cycles: st.cycles,
                insts: st.insts,
                pac_signs: st.signs,
                pac_auths: st.auths,
                traps: st.traps,
                pac_cycles: 0,
                pp_cycles: 0,
                incl: st.incl.clone(),
            })
            .collect();
        // Per-function PAC vs pp-check cycle split, summed from the sites.
        for s in &sites {
            let f = &mut funcs[s.site.func as usize];
            if s.site.kind.starts_with("pp_") {
                f.pp_cycles += s.cycles;
            } else {
                f.pac_cycles += s.cycles;
            }
        }
        let mut folded: Vec<(Vec<String>, u64)> = a
            .samples
            .iter()
            .map(|(path, &n)| {
                let names: Vec<String> = path
                    .iter()
                    .map(|&fi| {
                        m.funcs
                            .get(fi as usize)
                            .map_or_else(|| format!("<f{fi}>"), |f| f.name.clone())
                    })
                    .collect();
                (names, n)
            })
            .collect();
        folded.sort();
        Some(Box::new(AttrProfile {
            sample_every: a.sample_every,
            samples: a.n_samples,
            funcs,
            sites,
            folded,
        }))
    }

    // ---- flight-recorder hooks ---------------------------------------------
    //
    // Every call site below guards on `rec.is_some()`, so with the
    // recorder off (the default) its entire footprint is a few never-taken
    // branches — the same inertness discipline as the attribution hooks.
    // Events fire from code both accounting modes share (push_frame,
    // exec_ret, store_typed, the attacker API, and the translated
    // PAC/Load/Free ops), so recorded windows are mode-identical.

    /// Records one PAC-family event at the currently staged check site.
    #[inline(never)]
    fn rec_push(&mut self, kind: RecKind, value: u64, modifier: u64, key: u8) {
        let cycle = self.cycles;
        let func = self.frames.last().map_or(u32::MAX, |f| f.func.0);
        let r = self.rec.as_deref_mut().expect("recorder armed");
        let site = r.cur_site;
        r.push(RecEvent { cycle, kind, func, site, addr: 0, value, modifier, key });
    }

    /// Records one siteless event (load/store/free/attacker-write).
    #[inline(never)]
    fn rec_plain(&mut self, kind: RecKind, addr: u64, value: u64) {
        let cycle = self.cycles;
        let func = self.frames.last().map_or(u32::MAX, |f| f.func.0);
        let r = self.rec.as_deref_mut().expect("recorder armed");
        r.push(RecEvent {
            cycle,
            kind,
            func,
            site: NO_SITE,
            addr,
            value,
            modifier: 0,
            key: KEY_NONE,
        });
    }

    /// Records a scope transition for `fid` (the entered/exited function).
    #[inline(never)]
    fn rec_scope(&mut self, kind: RecKind, fid: FuncId) {
        let cycle = self.cycles;
        let r = self.rec.as_deref_mut().expect("recorder armed");
        r.push(RecEvent {
            cycle,
            kind,
            func: fid.0,
            site: NO_SITE,
            addr: 0,
            value: 0,
            modifier: 0,
            key: KEY_NONE,
        });
    }

    /// Synthesizes the structured [`Incident`] for the first detection
    /// trap of a recorded run: records the trap's own `auth_fail` event,
    /// resolves the sign-site lineage of the presented value from the
    /// ring, and freezes the scope timeline and event window. Cold — a
    /// detection ends the run.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn rec_synthesize(
        &mut self,
        trap: &'static str,
        inst: &'static str,
        pac_site: &'static str,
        modifier: u64,
        value: u64,
        key: u8,
        found: u64,
        expected: u64,
    ) {
        // The trap itself closes the window.
        self.rec_push(RecKind::AuthFail, value, modifier, key);
        let img = self.img;
        let m = &img.module;
        let func = self.cur_func_name();
        let line = self.cur_line();
        let cycle = self.cycles;
        let detail = self.audit.last().map(|a| a.detail.clone()).unwrap_or_default();
        let Some(r) = self.rec.as_deref() else { return };
        if r.incident.is_some() {
            return; // first detection only
        }
        let events = r.in_order();
        let resolve = |e: &RecEvent| IncidentEvent {
            cycle: e.cycle,
            kind: e.kind.name().to_string(),
            func: m
                .funcs
                .get(e.func as usize)
                .map_or_else(|| "<none>".to_string(), |f| f.name.clone()),
            site: site_label(&r.sites, e.site),
            addr: e.addr,
            value: e.value,
            modifier: e.modifier,
            key: key_label(e.key).to_string(),
        };
        // Lineage: the last sign event that produced exactly the bits the
        // failing check authenticated. A replayed signature resolves to
        // its original mint (exposing the modifier it was minted for); a
        // raw overwrite resolves to nothing.
        let lineage = events
            .iter()
            .rev()
            .find(|e| e.kind == RecKind::Sign && e.value == value && value != 0)
            .map(|e| SignLineage {
                site: site_label(&r.sites, e.site),
                func: m
                    .funcs
                    .get(e.func as usize)
                    .map_or_else(|| "<none>".to_string(), |f| f.name.clone()),
                cycle: e.cycle,
                modifier: e.modifier,
                key: key_label(e.key).to_string(),
            });
        let scope_timeline: Vec<IncidentEvent> = events
            .iter()
            .filter(|e| {
                matches!(e.kind, RecKind::ScopeEnter | RecKind::ScopeExit | RecKind::Free)
            })
            .map(&resolve)
            .collect();
        let window: Vec<IncidentEvent> = events.iter().map(&resolve).collect();
        let inc = Incident {
            schema: INCIDENT_SCHEMA,
            mechanism: img
                .mechanism
                .map_or_else(|| "baseline".to_string(), |mm| mm.name().to_string()),
            enforcement: match img.backend {
                Backend::PacInPointer => "pac_in_pointer",
                Backend::MacTable => "mac_table",
            }
            .to_string(),
            trap: trap.to_string(),
            cycle,
            func,
            line,
            check_site: site_label(&r.sites, r.cur_site),
            check_kind: inst.to_string(),
            pac_site: pac_site.to_string(),
            presented_modifier: modifier,
            presented_key: key_label(key).to_string(),
            presented_value: value,
            found_pac: found,
            expected_pac: expected,
            lineage,
            scope_timeline,
            window,
            dropped_events: r.dropped,
            detail,
        };
        self.rec.as_deref_mut().expect("recorder armed").incident = Some(Box::new(inc));
    }

    /// Adds the run's accumulated counts into the global collector and
    /// emits the end-of-run event. Runs once per finished execution; a
    /// disabled collector reduces this to two branches.
    fn flush_telemetry(&mut self) {
        if self.telemetry_flushed || self.status.is_none() {
            return;
        }
        self.telemetry_flushed = true;
        self.attr_finalize();
        let tel = rsti_telemetry::global();
        if !tel.is_enabled() {
            return;
        }
        self.pac.flush_telemetry();
        if let Some(a) = self.attr.as_deref() {
            tel.add(CounterId::VmAttrRuns, 1);
            tel.add(CounterId::VmAttrSamples, a.n_samples);
        }
        tel.add(
            match self.img.exec {
                ExecBackend::Interp => CounterId::VmRunsInterp,
                ExecBackend::Compiled => CounterId::VmRunsCompiled,
            },
            1,
        );
        tel.add(CounterId::VmPacSigns, self.pac.sign_count);
        tel.add(CounterId::VmPacAuths, self.pac.auth_count);
        tel.add(CounterId::VmAuthFailures, self.pac.fail_count);
        tel.add(CounterId::VmInstMem, self.opclass[OPCLASS_MEM]);
        tel.add(CounterId::VmInstArith, self.opclass[OPCLASS_ARITH]);
        tel.add(CounterId::VmInstCall, self.opclass[OPCLASS_CALL]);
        tel.add(CounterId::VmInstPac, self.opclass[OPCLASS_PAC]);
        tel.add(CounterId::VmInstBranch, self.opclass[OPCLASS_BRANCH]);
        tel.add(CounterId::VmInstOther, self.opclass[OPCLASS_OTHER]);
        let status = match &self.status {
            Some(Status::Exited(code)) => {
                format!("exit: {code}")
            }
            Some(Status::Trapped(t)) => {
                tel.add(CounterId::VmTraps, 1);
                format!("trap: {t}")
            }
            None => unreachable!("guarded above"),
        };
        tel.emit(&Event::RunEnd {
            insts: self.insts,
            cycles: self.cycles,
            pac_signs: self.pac.sign_count,
            pac_auths: self.pac.auth_count,
            status: &status,
        });
    }

    /// Builds the audit record for an RSTI detection trap, appends it to
    /// the run's audit log, and forwards it to the global collector.
    ///
    /// Cold and out of line, like every failure constructor below: a
    /// detection ends the run, and keeping the string formatting out of
    /// the op closures keeps them small.
    #[cold]
    #[inline(never)]
    fn record_audit(&mut self, site: &'static str, inst: &'static str, modifier: u64, detail: String) {
        let rec = AuditRecord {
            mechanism: self
                .img
                .mechanism
                .map_or_else(|| "baseline".to_string(), |m| m.name().to_string()),
            modifier,
            site: site.to_string(),
            func: self.cur_func_name(),
            line: self.cur_line(),
            inst: inst.to_string(),
            detail,
        };
        rsti_telemetry::global().record_violation(&rec);
        self.audit.push(rec);
    }

    /// PAC mismatch on an `aut` (pac-in-pointer backend). `value`/`key`
    /// are the presented bits and key — the flight recorder's forensic
    /// inputs when it is armed.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn pac_auth_fail(
        &mut self,
        inst: &'static str,
        site: PacSite,
        modifier: u64,
        found: u64,
        expected: u64,
        value: u64,
        key: u8,
    ) -> Trap {
        self.record_audit(
            site_name(site),
            inst,
            modifier,
            format!("found PAC {found:#x}, expected {expected:#x}"),
        );
        if self.rec.is_some() {
            self.rec_synthesize(
                "pac_auth_failure",
                inst,
                site_name(site),
                modifier,
                value,
                key,
                found,
                expected,
            );
        }
        Trap::PacAuthFailure {
            func: self.cur_func_name(),
            line: self.cur_line(),
            site,
            found_pac: found,
            expected_pac: expected,
        }
    }

    /// Missing or stale MAC on an `aut` (MAC-table backend).
    #[cold]
    #[inline(never)]
    fn mac_stale_fail(
        &mut self,
        inst: &'static str,
        site: PacSite,
        modifier: u64,
        expected: u64,
        value: u64,
        key: u8,
    ) -> Trap {
        self.record_audit(
            site_name(site),
            inst,
            modifier,
            format!("MAC missing or stale, expected {expected:#x}"),
        );
        if self.rec.is_some() {
            self.rec_synthesize(
                "pac_auth_failure",
                inst,
                site_name(site),
                modifier,
                value,
                key,
                0,
                expected,
            );
        }
        Trap::PacAuthFailure {
            func: self.cur_func_name(),
            line: self.cur_line(),
            site,
            found_pac: 0,
            expected_pac: expected,
        }
    }

    /// Pointer-to-pointer metadata failure.
    #[cold]
    #[inline(never)]
    fn pp_fail(
        &mut self,
        inst: &'static str,
        modifier: u64,
        f: PpFail,
        value: u64,
        key: u8,
    ) -> Trap {
        let (detail, reason) = match f {
            PpFail::Conflict { ce, had } => (
                format!("CE {ce} metadata conflict (had {had:#x})"),
                format!("CE {ce} metadata conflict"),
            ),
            PpFail::NotRegistered { ce } => (
                format!("CE {ce} not registered"),
                format!("pp_sign: CE {ce} not registered"),
            ),
            PpFail::MissingTag => (
                "missing CE tag (raw or corrupted pointer)".to_string(),
                "pp_auth: missing CE tag (raw or corrupted pointer)".to_string(),
            ),
            PpFail::NotInStore { ce } => (
                format!("CE {ce} not in metadata store"),
                format!("pp_auth: CE {ce} not in metadata store"),
            ),
        };
        self.record_audit("pp_metadata", inst, modifier, detail);
        if self.rec.is_some() {
            self.rec_synthesize("pp_auth_failure", inst, "pp_metadata", modifier, value, key, 0, 0);
        }
        Trap::PpAuthFailure { func: self.cur_func_name(), reason }
    }

    fn cur_func_name(&self) -> String {
        self.frames
            .last()
            .and_then(|f| self.img.module.funcs.get(f.func.0 as usize))
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "<none>".into())
    }

    fn cur_line(&self) -> u32 {
        let Some(fr) = self.frames.last() else { return 0 };
        let Some(f) = self.img.module.funcs.get(fr.func.0 as usize) else { return 0 };
        f.blocks
            .get(fr.block)
            .and_then(|b| b.insts.get(fr.idx))
            .and_then(|n| n.loc)
            .map(|l| l.line)
            .unwrap_or(0)
    }

    fn push_frame(
        &mut self,
        fid: FuncId,
        args: &[RtVal],
        ret_to: Option<ValueId>,
    ) -> Result<(), Trap> {
        if self.frames.len() >= 4096 {
            return Err(Trap::StackOverflow);
        }
        // Frame transition: charge the delta since the last checkpoint to
        // the (outgoing) caller. Both accounting modes call through here,
        // at the same accounting state, so attribution is mode-independent.
        if self.attr.is_some() {
            self.attr_checkpoint();
        }
        let img = self.img;
        let f = img.module.func(fid);
        let mut frame = self.frame_pool.pop().unwrap_or_else(Frame::blank);
        let nvals = f.value_types.len();
        // A fresh, globally unique generation invalidates every slot the
        // window inherits — stale tags (from popped frames or recycled
        // buffers) can never match, so nothing needs a memset.
        self.gen_counter += 1;
        frame.gen = self.gen_counter;
        let base = self.reg_top;
        if self.regs.len() < base + nvals {
            // Extends only past the high-water mark: steady-state
            // call/return re-covers already-initialized slots for free.
            self.regs.resize(base + nvals, (0, RtVal::I(0)));
        }
        frame.reg_base = base;
        if frame.alloca_cache.len() < nvals {
            frame.alloca_cache.resize(nvals, (0, 0));
        }
        // Extra arguments (a hijacked call with a mismatched signature, or
        // varargs) are silently dropped, as the AAPCS would leave them in
        // unread registers.
        for (i, &a) in args.iter().enumerate() {
            if let Some((pv, _)) = f.params.get(i) {
                self.regs[base + pv.0 as usize] = (frame.gen, a);
            }
        }
        // Without the shadow stack, spill a return token into stack
        // memory, like a saved LR — attacker-reachable by construction.
        let ret_slot = if self.img.shadow_stack {
            None
        } else {
            let caller_code = self
                .frames
                .last()
                .map(|fr| func_address(&self.img.module, fr.func))
                .unwrap_or(layout::CODE_BASE);
            let slot = self.stack_top;
            self.stack_top += 8;
            self.mem
                .write_u64(slot, caller_code)
                .map_err(|e| Trap::Mem { func: String::from("<prologue>"), fault: e })?;
            Some((slot, caller_code))
        };
        frame.func = fid;
        frame.block = 0;
        frame.idx = 0;
        frame.stack_mark = self.stack_top - if ret_slot.is_some() { 8 } else { 0 };
        frame.ret_to = ret_to;
        frame.ret_slot = ret_slot;
        frame.entry_cycles = self.cycles;
        if let Some(a) = self.attr.as_deref_mut() {
            a.funcs[fid.0 as usize].calls += 1;
        }
        self.reg_top = base + nvals;
        self.reg_base = base;
        self.cur_gen = frame.gen;
        self.frames.push(frame);
        if self.rec.is_some() {
            // Scope entry, recorded in the one prologue every run shares.
            self.rec_scope(RecKind::ScopeEnter, fid);
        }
        Ok(())
    }

    /// Re-derives the register-window mirrors after a frame pop: the
    /// popped frame's window is released and the caller's becomes
    /// current.
    #[inline]
    fn sync_reg_window(&mut self, popped_base: usize) {
        self.reg_top = popped_base;
        match self.frames.last() {
            Some(fr) => {
                self.reg_base = fr.reg_base;
                self.cur_gen = fr.gen;
            }
            None => {
                self.reg_base = 0;
                self.cur_gen = 0;
            }
        }
    }

    /// Returns a popped frame's buffers to the pool for reuse.
    fn recycle(&mut self, frame: Frame) {
        if self.frame_pool.len() < 64 {
            self.frame_pool.push(frame);
        }
    }

    #[inline]
    fn set(&mut self, v: ValueId, val: RtVal) {
        self.regs[self.reg_base + v.0 as usize] = (self.cur_gen, val);
    }

    #[inline]
    fn as_ptr(&self, v: RtVal) -> Result<u64, Trap> {
        match v {
            RtVal::P(p) => Ok(p),
            RtVal::I(i) => Ok(i as u64), // integer used as pointer (C laxity)
            RtVal::F(_) => Err(Trap::BadProgram("float used as pointer".into())),
        }
    }

    /// Checks canonical form and returns the translated address.
    #[inline(always)]
    fn deref_addr(&self, p: u64) -> Result<u64, Trap> {
        if p & self.noncanon_mask != 0 {
            // Non-canonical (PAC-carrying, poisoned, forged): hardware
            // translation faults.
            return Err(self.noncanonical_trap(p));
        }
        Ok(p & self.addr_mask)
    }

    #[cold]
    #[inline(never)]
    fn noncanonical_trap(&self, p: u64) -> Trap {
        Trap::Mem { func: self.cur_func_name(), fault: MemFault::Unmapped { addr: p } }
    }

    #[cold]
    #[inline(never)]
    fn mem_err(&self, fault: MemFault) -> Trap {
        Trap::Mem { func: self.cur_func_name(), fault }
    }

    fn store_typed(&mut self, addr: u64, ty: TypeId, v: RtVal) -> Result<(), Trap> {
        let img = self.img;
        let m = &img.module;
        // All scalar stores are <= 8 bytes; each arm writes its exact
        // width so the range check folds to one comparison.
        let r = match (m.types.get(ty), v) {
            (Type::Bool | Type::I8, RtVal::I(i)) => self.mem.write_arr::<1>(addr, [i as u8]),
            (Type::I16, RtVal::I(i)) => self.mem.write_arr::<2>(addr, (i as i16).to_le_bytes()),
            (Type::I32, RtVal::I(i)) => self.mem.write_arr::<4>(addr, (i as i32).to_le_bytes()),
            (Type::I64, RtVal::I(i)) => self.mem.write_arr::<8>(addr, i.to_le_bytes()),
            (Type::F64, RtVal::F(f)) => self.mem.write_arr::<8>(addr, f.to_le_bytes()),
            (Type::F64, RtVal::I(i)) => self.mem.write_arr::<8>(addr, (i as f64).to_le_bytes()),
            (Type::Ptr(_), v) => {
                let p = self.as_ptr(v)?;
                let w = self.mem.write_arr::<8>(addr, p.to_le_bytes());
                if w.is_ok() && self.rec.is_some() {
                    // A pointer slot changed hands — the lifecycle event
                    // lineage resolution walks back through. (The compiled
                    // engine's inlined ptr-store closure mirrors this.)
                    self.rec_plain(RecKind::Store, addr, p);
                }
                w
            }
            (t, v) => {
                return Err(Trap::BadProgram(format!("store of {v:?} into {t:?}")))
            }
        };
        r.map_err(|e| self.mem_err(e))
    }

    /// The per-op loop's block exit charge: fuel check plus instruction,
    /// opcode-class, and cycle accounting for a terminator. The fast path
    /// pre-charges the same `branch` cost and one branch-class count with
    /// its block.
    #[inline]
    fn charge_block_transfer(&mut self) -> Result<(), Trap> {
        if self.insts >= self.fuel {
            return Err(Trap::FuelExhausted);
        }
        self.insts += 1;
        if self.trace_enabled {
            self.opclass[OPCLASS_BRANCH] += 1;
        }
        self.cycles += self.img.cost.branch;
        if self.attr.is_some() {
            self.attr_maybe_sample();
        }
        Ok(())
    }

    /// The return epilogue every run shares: pops the frame and hands
    /// `val` to the caller, or ends the run when `main` returns.
    fn exec_ret(&mut self, val: Option<RtVal>) -> Result<(), Trap> {
        // Frame transition: charge the delta (return-terminator
        // cost included — `charge_block_transfer` already ran) to
        // the returning function before its frame pops.
        if self.attr.is_some() {
            self.attr_checkpoint();
        }
        // Without a shadow stack, the epilogue loads the return
        // address from memory. A corrupted value redirects control
        // — the ROP surface the paper's §3 assumption closes.
        if let Some((slot, expected)) = self.frames.last().and_then(|f| f.ret_slot) {
            let found = self.mem.read_u64(slot).map_err(|e| self.mem_err(e))?;
            if found != expected {
                let fr = self.frames.pop().expect("frame");
                self.stack_top = fr.stack_mark;
                self.sync_reg_window(fr.reg_base);
                if self.rec.is_some() {
                    self.rec_scope(RecKind::ScopeExit, fr.func);
                }
                self.recycle(fr);
                let target = self.img.va.canonical(found);
                return match resolve_code_addr(&self.img.module, target) {
                    Some((fid, true)) => {
                        let name = self.img.module.funcs[fid.0 as usize].name.clone();
                        let ret = self.img.module.funcs[fid.0 as usize].sig.ret;
                        let _ = self.external_call(&name, &[], ret);
                        // The "gadget" returns into undefined state.
                        self.status = Some(Status::Trapped(Trap::CallNonFunction {
                            func: name,
                            target,
                        }));
                        Ok(())
                    }
                    Some((fid, false)) => self.push_frame(fid, &[], None),
                    None => Err(Trap::Mem {
                        func: self.cur_func_name(),
                        fault: MemFault::Unmapped { addr: found },
                    }),
                };
            }
        }
        let fr = self.frames.pop().expect("frame");
        self.stack_top = fr.stack_mark;
        self.sync_reg_window(fr.reg_base);
        if let Some(a) = self.attr.as_deref_mut() {
            // Completed activation: inclusive cycles, entry→return.
            a.funcs[fr.func.0 as usize].incl.record(self.cycles - fr.entry_cycles);
        }
        if self.rec.is_some() {
            // Scope exit, in the one epilogue every run shares.
            self.rec_scope(RecKind::ScopeExit, fr.func);
        }
        if self.frames.is_empty() {
            let code = match val {
                Some(RtVal::I(i)) => i,
                Some(RtVal::P(p)) => p as i64,
                Some(RtVal::F(f)) => f as i64,
                None => 0,
            };
            self.status = Some(Status::Exited(code));
        } else if let Some(rt) = fr.ret_to {
            self.regs[self.reg_base + rt.0 as usize] = match val {
                Some(v) => (self.cur_gen, v),
                // Void return into a slot: leave undefined.
                None => (0, RtVal::I(0)),
            };
        }
        self.recycle(fr);
        Ok(())
    }

    fn external_call(&mut self, name: &str, args: &[RtVal], ret: TypeId) -> Option<RtVal> {
        let critical = CRITICAL_EXTERNALS.contains(&name);
        self.events.push(ExtEvent {
            name: name.to_string(),
            args: args.iter().map(|a| a.to_string()).collect(),
            critical,
        });
        let img = self.img;
        let m = &img.module;
        if ret == m.types.void() {
            None
        } else if m.types.is_ptr(ret) {
            Some(RtVal::P(0))
        } else if ret == m.types.f64() {
            Some(RtVal::F(0.0))
        } else {
            Some(RtVal::I(0))
        }
    }
}

/// Orders two runtime values under the comparison coercion rules (the
/// `Cmp` op closures). The common `(I, I)` arm leads.
#[inline(always)]
fn ord_vals(a: RtVal, b: RtVal) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (RtVal::I(x), RtVal::I(y)) => x.cmp(&y),
        (RtVal::F(x), RtVal::F(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Greater),
        (RtVal::F(x), RtVal::I(y)) => {
            x.partial_cmp(&(y as f64)).unwrap_or(Ordering::Greater)
        }
        (RtVal::I(x), RtVal::F(y)) => {
            (x as f64).partial_cmp(&y).unwrap_or(Ordering::Greater)
        }
        (RtVal::P(x), RtVal::P(y)) => x.cmp(&y),
        (RtVal::P(x), RtVal::I(y)) => x.cmp(&(y as u64)),
        (RtVal::I(x), RtVal::P(y)) => (x as u64).cmp(&y),
        // Float/pointer comparisons cannot come from verified IR; order
        // arbitrarily rather than panic.
        (RtVal::F(_), RtVal::P(_)) | (RtVal::P(_), RtVal::F(_)) => Ordering::Greater,
    }
}

/// Lays out and fills an id-checked image's data: the globals and strings
/// segments, global initializers, and load-time signing of static pointer
/// initializers (PAC-in-pointer), or their boot MACs into `mac_table`.
/// Returns the memory and every global's address.
///
/// # Errors
/// A [`Trap::Mem`] when the segments are larger than the VM hosts.
fn load_data(
    img: &Image,
    pac: &mut PacUnit,
    mac_table: &mut HashMap<u64, u64>,
) -> Result<(Memory, Vec<u64>), Trap> {
    let m = &img.module;
    // Globals layout — delegated to the module so the optimizer's
    // precomputed-modifier pass folds exactly the addresses the VM
    // loads at (`rsti_ir::Module::global_addresses` is the contract).
    let gaddr = m.global_addresses();
    let goff = match (gaddr.last(), m.globals.last()) {
        (Some(&base), Some(g)) => base
            .saturating_sub(layout::GLOBAL_BASE)
            // Saturating: absurd global sizes must survive layout so
            // the segment-size check below can reject them with a trap.
            .saturating_add(m.types.size_of(g.ty).max(8).div_ceil(8).saturating_mul(8)),
        _ => 0,
    };
    let (saddr, soff) = string_addresses(m);
    // Segment sizes are program-derived (a huge global array inflates
    // `goff`): an oversized request is a trap, not a host abort.
    let mut mem = Memory::new(goff.max(8), soff.max(8), img.heap_size, img.stack_size)
        .map_err(|fault| Trap::Mem { func: "<loader>".into(), fault })?;
    // String contents (program-read-only segment; written here via the
    // loader's privileged path).
    for (s, &a) in m.strings.iter().zip(&saddr) {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        mem.attacker_write(a, &bytes).expect("string fits");
    }
    for (g, &a) in m.globals.iter().zip(&gaddr) {
        match &g.init {
            GlobalInit::Zero => {}
            GlobalInit::Int(v) => {
                let size = m.types.size_of(g.ty).clamp(1, 8);
                let bytes = v.to_le_bytes();
                mem.write(a, &bytes[..size as usize]).expect("global fits");
            }
            GlobalInit::FuncAddr(fid) => {
                mem.write_u64(a, func_address(m, *fid)).expect("global fits");
            }
            GlobalInit::Str(sid) => {
                mem.write_u64(a, saddr[sid.0 as usize]).expect("global fits");
            }
        }
    }
    for gs in &img.global_signing {
        let a = gaddr[gs.global.0 as usize];
        let raw = mem.read_u64(a).expect("global mapped");
        if raw == 0 {
            continue;
        }
        let modifier = if gs.mix_location { gs.modifier ^ a } else { gs.modifier };
        match img.backend {
            Backend::PacInPointer => {
                let signed = pac.sign(key_id(gs.key), raw, modifier);
                mem.write_u64(a, signed).expect("global mapped");
            }
            Backend::MacTable => {
                mac_table.insert(a, pac.compute_pac(key_id(gs.key), raw, modifier));
            }
        }
    }
    Ok((mem, gaddr))
}

/// String-segment layout: the address of each interned string, plus the
/// total segment size. Shared by the loader and the block compiler so
/// both resolve `Operand::Str` to the same addresses.
pub(crate) fn string_addresses(m: &Module) -> (Vec<u64>, u64) {
    let mut saddr = Vec::with_capacity(m.strings.len());
    let mut soff = 0u64;
    for s in &m.strings {
        saddr.push(layout::STR_BASE + soff);
        soff += s.len() as u64 + 1;
    }
    (saddr, soff)
}

/// The code address of a function. An out-of-range id gets a code-segment
/// address (it will fail resolution on use rather than abort here).
pub fn func_address(m: &Module, fid: FuncId) -> u64 {
    let base = if m.funcs.get(fid.0 as usize).is_some_and(|f| f.is_external) {
        layout::EXTERNAL_BASE
    } else {
        layout::CODE_BASE
    };
    base + fid.0 as u64 * layout::CODE_STRIDE
}

/// Resolves a canonical address back to a function, if it is one.
/// Returns (id, is_external).
pub fn resolve_code_addr(m: &Module, addr: u64) -> Option<(FuncId, bool)> {
    for (base, external) in [(layout::CODE_BASE, false), (layout::EXTERNAL_BASE, true)] {
        if addr >= base && addr < base + m.funcs.len() as u64 * layout::CODE_STRIDE {
            let off = addr - base;
            if !off.is_multiple_of(layout::CODE_STRIDE) {
                return None;
            }
            let fid = FuncId((off / layout::CODE_STRIDE) as u32);
            let f = &m.funcs[fid.0 as usize];
            if f.is_external == external {
                return Some((fid, external));
            }
            return None;
        }
    }
    None
}

fn key_id(k: PacKey) -> KeyId {
    match k {
        PacKey::Ia => KeyId::Ia,
        PacKey::Ib => KeyId::Ib,
        PacKey::Da => KeyId::Da,
        PacKey::Db => KeyId::Db,
        PacKey::Ga => KeyId::Ga,
    }
}
