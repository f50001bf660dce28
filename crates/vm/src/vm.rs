//! The virtual machine: executes (instrumented) IR under the PA model.
//!
//! Execution runs on the image's translated form (see `compile.rs`): one
//! pre-resolved op per instruction, direct-threaded by one driver that
//! charges whole blocks up front or — under the parity checks' reference
//! accounting ([`ExecBackend::Interp`]) — one op at a time. This
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
    optimize_module, optimize_program_at, pac_site_name, CheckSite, GlobalSign, InstrumentStats,
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
use std::sync::{Arc, OnceLock};

// Translation into pre-resolved ops and the driver that runs them. Declared as
// a child of this module (rather than a sibling under `lib.rs`) so its
// op rules can reach the VM's private state — the register file, the PA
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

/// Order of [`ExecResult::site_counts`]: `PacSite`'s declaration order, so
/// a site's index is its discriminant (`site as usize`).
pub const SITE_ORDER: [PacSite; 6] = [
    PacSite::OnStore,
    PacSite::OnLoad,
    PacSite::CastResign,
    PacSite::ArgResign,
    PacSite::ExternalStrip,
    PacSite::NewPointer,
];

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
/// rules compiles to a branch plus a call into cold code instead of
/// inline `format!` machinery.
#[cold]
#[inline(never)]
fn oob(what: &'static str, idx: usize) -> Box<Trap> {
    Box::new(Trap::BadProgram(format!("{what} {idx} out of range")))
}

/// A [`Trap::BadProgram`] with a fixed message, built out of line.
#[cold]
#[inline(never)]
fn bad_program(msg: &'static str) -> Box<Trap> {
    Box::new(Trap::BadProgram(msg.into()))
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

/// A sign or auth op's translation-time constants, the inputs of
/// [`Vm::auth_fail`] and of the sign and auth rules in `compile.rs`.
#[derive(Clone, Copy)]
struct PaOp {
    /// The enforcement backend: the MAC table, or PAC-in-pointer.
    mac: bool,
    key: KeyId,
    /// The site class a failing auth reports (`pp_auth` reports
    /// `on_load`).
    class: PacSite,
    /// The check-site id, which the op's recorder events and failure
    /// report carry.
    site: u32,
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
#[derive(Debug, Clone, Default, PartialEq)]
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
/// nbench/NGINX workloads (~hundreds of samples per run).
pub const DEFAULT_ATTR_SAMPLE_EVERY: u64 = 4096;

/// The shortest sampling period: the largest single charge of any cost
/// model (`malloc`, 30 cycles), rounded up. No charge can then cross two
/// sampling boundaries, so a block run takes one sample per boundary its
/// cycles crossed — what sampling after every charge would take.
pub const MIN_ATTR_SAMPLE_EVERY: u64 = 32;

/// The site id of an op that is no check ([`compile::Op::site`]).
pub(crate) const NO_SITE: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
struct FuncStat {
    calls: u64,
    incl: Histogram,
    /// Executions of each op, as a difference array: a run of ops
    /// `from..to` adds one at `from` and takes one away at `to`.
    op_runs: Vec<i64>,
    /// Executions of each block's terminator.
    term_runs: Vec<u64>,
}

/// Per-run attribution state, allocated only when [`Image::attr`] is on.
///
/// Attribution counts block runs: at the end of every run, under either
/// accounting mode, the driver adds the run's ops and terminator to its
/// function's execution counts (`attr_run`). The profile derives every
/// cycle, instruction, sign and auth total from those counts and the
/// charge table. Activations and inclusive cycles come from the frame
/// push and the return epilogue.
struct AttrState {
    /// Indexed by function id.
    funcs: Vec<FuncStat>,
    /// The op that trapped: function and op index.
    trapped: Option<(usize, usize)>,
    /// Signs and auths at load: the loader's global signs are no
    /// function's.
    loaded: (u64, u64),
    /// Deterministic sampler: a call-stack sample is due each time
    /// `Vm::cycles` crosses a multiple of `sample_every`.
    sample_every: u64,
    next_sample: u64,
    n_samples: u64,
    samples: HashMap<Vec<u32>, u64>,
}

impl AttrState {
    /// The state for a run of `vm`, just loaded.
    fn new(vm: &Vm<'_>) -> Box<Self> {
        let mut funcs = vec![FuncStat::default(); vm.img.module.funcs.len()];
        for (st, cf) in funcs.iter_mut().zip(vm.code.funcs.iter().flatten()) {
            st.op_runs = vec![0; cf.ops.len() + 1];
            st.term_runs = vec![0; cf.blocks.len()];
        }
        let sample_every = vm.img.attr_sample_every;
        Box::new(AttrState {
            funcs,
            trapped: None,
            loaded: (vm.pac.sign_count, vm.pac.auth_count),
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

/// An event's key label: the register's name, or empty for none.
fn key_label(key: Option<KeyId>) -> &'static str {
    key.map_or("", KeyId::name)
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
    key: Option<KeyId>,
}

/// Per-run flight-recorder state, allocated only when [`Image::record`]
/// is on. Events are captured by the ops and the frame protocol both
/// accounting modes share, and stamped with the deterministic cycle at
/// which their op was charged (`op_cycle`: under the block pre-charge,
/// the block's clock plus the op's prefix sum), so interp and compiled
/// runs record bit-identical windows.
struct RecState {
    /// Bounded ring of recent events; `next` is the overwrite cursor
    /// (the oldest row) once the ring is full.
    ring: Vec<RecEvent>,
    next: usize,
    dropped: u64,
    /// The synthesized incident, set at the first detection trap.
    incident: Option<Box<Incident>>,
    /// Under the block pre-charge: `cycles` as it stood before the
    /// running block's first op (whether or not that op ran in this run),
    /// and that op's index in its function.
    clock: (u64, usize),
}

impl RecState {
    fn new() -> Box<Self> {
        Box::new(RecState {
            ring: Vec::with_capacity(DEFAULT_RECORD_CAP),
            next: 0,
            dropped: 0,
            incident: None,
            clock: (0, 0),
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
/// compiled once into plain ops with pre-resolved operand slots
/// — through the same direct-threaded driver, and differ only in
/// accounting. They are observably identical (same traps, same audit
/// records, same cycle/instruction accounting, same telemetry counters),
/// which the parity tests and the fuzz matrix (every mechanism × opt
/// level under both) check: `Interp` is the reference the block
/// pre-charge and its rollback are held to. It is not a user choice: the
/// CLI, `serve` and the attack API run the default, and only those
/// checks (and `vm_throughput`, which times both) select `Interp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Reference accounting: block pre-charge off, so every op is
    /// fuel-checked and charged before it runs.
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

/// The VA layout every image runs under: the paper's 48-bit VA with TBI,
/// the layout the optimizer folds STL modifiers against.
const VA: VaConfig = VaConfig::paper_default();

/// A loadable program image: the module, its defense, and the per-run
/// choices made with the builders ([`Image::with_backend`],
/// [`Image::with_exec`], ...). Everything else is fixed when the image is
/// built: the VA layout ([`VaConfig::paper_default`]), the arena sizes
/// ([`layout::HEAP_SIZE`], [`layout::STACK_SIZE`]) and the cost model
/// ([`CostModel::for_mechanism`]).
///
/// The module and the translation are held behind [`Arc`]s, so building
/// an image — and cloning one per measurement run — never deep-copies
/// the program, and a clone of a translated image reuses its translation.
#[derive(Debug, Clone)]
pub struct Image {
    module: Arc<Module>,
    /// `None` for an uninstrumented baseline image.
    mechanism: Option<Mechanism>,
    /// Globals the loader signs before `main`.
    global_signing: Vec<GlobalSign>,
    /// PA keys (per-process, kernel-generated).
    keys: PacKeys,
    backend: Backend,
    /// Whether return addresses are protected out-of-band (the paper's §3
    /// shadow-stack assumption). Without it, each frame spills its return
    /// address into attacker-reachable stack memory and honours whatever
    /// is there on return — the classic ROP surface RSTI explicitly does
    /// *not* cover.
    shadow_stack: bool,
    exec: ExecBackend,
    /// Attribution profiling: per-function/per-site accounting plus the
    /// deterministic call-stack sampler, every `attr_sample_every` model
    /// cycles. Off by default and inert like `record`.
    attr: bool,
    attr_sample_every: u64,
    /// Flight recorder: a bounded ring of pointer-lifecycle events plus
    /// incident synthesis at the first detection trap. Off, a run charges
    /// not one extra cycle or instruction and the VM pays a handful of
    /// is-none branches.
    record: bool,
    /// The translation, built on the first run (or by
    /// [`Image::precompile`]) and reset by [`Image::with_backend`], the
    /// one builder folded into it.
    compiled: OnceLock<Arc<compile::CompiledModule>>,
}

impl Image {
    fn new(
        module: Arc<Module>,
        mechanism: Option<Mechanism>,
        global_signing: Vec<GlobalSign>,
    ) -> Self {
        Image {
            module,
            mechanism,
            global_signing,
            keys: PacKeys::test_keys(),
            backend: Backend::PacInPointer,
            shadow_stack: true,
            exec: ExecBackend::Compiled,
            attr: false,
            attr_sample_every: DEFAULT_ATTR_SAMPLE_EVERY,
            record: false,
            compiled: OnceLock::new(),
        }
    }

    /// Builds an image from an instrumented program.
    pub fn from_instrumented(p: &InstrumentedProgram) -> Self {
        Self::new(Arc::new(p.module.clone()), Some(p.mechanism), p.global_signing.clone())
    }

    /// Builds an image from an instrumented program, taking ownership —
    /// the zero-copy path for harnesses that instrument once per run.
    pub fn from_instrumented_owned(p: InstrumentedProgram) -> Self {
        Self::new(Arc::new(p.module), Some(p.mechanism), p.global_signing)
    }

    /// Builds an uninstrumented baseline image.
    pub fn baseline(m: &Module) -> Self {
        Self::baseline_owned(m.clone())
    }

    /// Builds an uninstrumented baseline image, taking ownership of the
    /// module (zero-copy).
    pub fn baseline_owned(m: Module) -> Self {
        Self::new(Arc::new(m), None, Vec::new())
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

    /// The (possibly instrumented) module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The driver's accounting mode.
    pub fn exec(&self) -> ExecBackend {
        self.exec
    }

    /// Switches the enforcement backend (builder style). The backend is
    /// folded into the translation, so the image starts without one.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self.compiled = OnceLock::new();
        self
    }

    /// Replaces the PA keys (builder style) — a different process.
    pub fn with_keys(mut self, keys: PacKeys) -> Self {
        self.keys = keys;
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
    /// model cycles (builder style), at least [`MIN_ATTR_SAMPLE_EVERY`].
    pub fn with_attr_sampling(mut self, every: u64) -> Self {
        self.attr = true;
        self.attr_sample_every = every.max(MIN_ATTR_SAMPLE_EVERY);
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
    /// `vm_compiled_blocks`).
    pub(crate) fn compiled(&self) -> &Arc<compile::CompiledModule> {
        self.compiled.get_or_init(|| {
            let tel = rsti_telemetry::global();
            let code = {
                let _span = tel.span(Phase::VmCompile);
                Arc::new(compile::compile_module(self))
            };
            tel.add(CounterId::VmCompiledBlocks, code.n_blocks);
            code
        })
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
    /// `Vm::cycles` at frame push: attribution's inclusive activation timer.
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
    code: &'img compile::CompiledModule,
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
    /// Retired frames kept for reuse: their `alloca_cache` buffers are
    /// recycled so steady-state call/return performs no heap allocation.
    frame_pool: Vec<Frame>,
    output: Vec<String>,
    events: Vec<ExtEvent>,
    cycles: u64,
    insts: u64,
    fuel: u64,
    stack_top: u64,
    status: Option<Status>,
    paused: bool,
    /// MacTable backend: slot address → MAC of (pointer, modifier).
    /// Lives outside the attacker-addressable space, like the PA keys —
    /// CCFI's inline MACs would instead be copyable alongside the object,
    /// a weakening we do not model.
    mac_table: HashMap<u64, u64>,
    /// MacTable backend: MAC staged by a sign (`pa_sign`) awaiting its
    /// store, or consumed by an immediately following auth (register-domain
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
    /// block run) unless the image enables it.
    attr: Option<Box<AttrState>>,
    /// Flight-recorder state — `None` (one pointer-null branch per hook)
    /// unless the image arms it.
    rec: Option<Box<RecState>>,
    /// The callee of the op that returned `Control::Call`, and the
    /// register its result goes to.
    pending_call: (FuncId, Option<ValueId>),
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
        let code: &compile::CompiledModule = img.compiled();
        let mut pac = PacUnit::new(&img.keys, VA);
        let mut mac_table = HashMap::new();
        let loaded = match &code.funcs {
            Ok(_) => load_data(img, code, &mut pac, &mut mac_table),
            Err(msg) => Err(Trap::BadProgram(msg.clone())),
        };
        let (mem, load_trap) = match loaded {
            Ok(mem) => (mem, None),
            Err(t) => (Memory::new(8, 8, 64, 64).expect("minimal layout fits"), Some(t)),
        };

        let mut vm = Vm {
            img,
            code,
            mem,
            alloc: Allocator::new(layout::HEAP_SIZE),
            pac,
            pp_table: HashMap::new(),
            frames: Vec::new(),
            regs: Vec::new(),
            reg_top: 0,
            reg_base: 0,
            cur_gen: 0,
            gen_counter: 0,
            frame_pool: Vec::new(),
            output: Vec::new(),
            events: Vec::new(),
            cycles: 0,
            insts: 0,
            fuel: 500_000_000,
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
            attr: None,
            rec: img.record.then(RecState::new),
            pending_call: (FuncId(0), None),
        };
        vm.attr = img.attr.then(|| AttrState::new(&vm));
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
            self.rec_plain(RecKind::AttackerWrite, self.cycles, addr, u64::from_le_bytes(v));
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
        self.code.gaddr.get(gid.0 as usize).copied()
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

    // ---- attribution ---------------------------------------------------------
    //
    // The driver's one hook (`attr_run`, in `compile.rs`) counts block runs;
    // every total below is derived from those counts. With attribution off
    // the profiler's footprint is one never-taken branch per block run.

    /// Takes `n` call-stack samples of the current stack.
    #[cold]
    #[inline(never)]
    fn attr_take_samples(&mut self, n: u64) {
        let path: Vec<u32> = self.frames.iter().map(|f| f.func.0).collect();
        let a = self.attr.as_deref_mut().expect("attr on");
        *a.samples.entry(path).or_insert(0) += n;
        a.n_samples += n;
    }

    /// Builds the public profile from the run's attribution counts and
    /// the charge table.
    fn attr_profile(&self) -> Option<Box<AttrProfile>> {
        let a = self.attr.as_deref()?;
        let m = &self.img.module;
        let mut sites: Vec<SiteAttr> = (self.code.sites.iter())
            .map(|s| {
                SiteAttr { site: s.clone(), execs: 0, cycles: 0, signs: 0, auths: 0, traps: 0 }
            })
            .collect();
        let mut funcs: Vec<FuncAttr> = m
            .funcs
            .iter()
            .zip(&a.funcs)
            .map(|(f, st)| FuncAttr {
                name: f.name.clone(),
                calls: st.calls,
                incl: st.incl.clone(),
                ..FuncAttr::default()
            })
            .collect();
        // An op ran as often as the prefix sum of its run counts says; each
        // completed sign or auth op signed or authenticated once.
        let branch = CostModel::for_mechanism(self.img.mechanism).branch;
        for (fi, cf) in self.code.funcs.iter().flatten().enumerate() {
            let (st, f) = (&a.funcs[fi], &mut funcs[fi]);
            let mut execs = 0;
            for (i, (op, c)) in cf.ops.iter().zip(&cf.charge).enumerate() {
                execs += st.op_runs[i];
                let n = execs as u64;
                f.insts += n;
                f.cycles += n * c.cost;
                if let Some(s) = sites.get_mut(op.site() as usize) {
                    let (signs, auths) = op.signs_auths(n - u64::from(a.trapped == Some((fi, i))));
                    s.execs += n;
                    s.cycles += n * c.cost;
                    s.signs += signs;
                    s.auths += auths;
                }
            }
            let terms: u64 = st.term_runs.iter().sum();
            f.insts += terms;
            f.cycles += terms * branch;
        }
        // The op that trapped holds the signs and auths no completed op did.
        if let (Some((fi, op)), Ok(code)) = (a.trapped, &self.code.funcs) {
            let signs: u64 = sites.iter().map(|s| s.signs).sum();
            let auths: u64 = sites.iter().map(|s| s.auths).sum();
            if let Some(s) = sites.get_mut(code[fi].ops[op].site() as usize) {
                s.signs += self.pac.sign_count - a.loaded.0 - signs;
                s.auths += self.pac.auth_count - a.loaded.1 - auths;
                s.traps += 1;
            }
        }
        if let (Some(Status::Trapped(_)), Some(fr)) = (&self.status, self.frames.last()) {
            funcs[fr.func.0 as usize].traps += 1;
        }
        // Every sign and auth happens at a check site: the per-function
        // counts and PAC vs pp-check cycle split are sums over the sites.
        for s in &sites {
            let f = &mut funcs[s.site.func as usize];
            f.pac_signs += s.signs;
            f.pac_auths += s.auths;
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
    // branches. Events fire from code both accounting modes share
    // (push_frame, exec_ret, the attacker API, and the translated
    // PAC/Load/Store/Free ops) and carry their op's exact cycle, so
    // recorded windows are mode-identical.

    /// Records one PAC-family event of check site `site`.
    #[inline(never)]
    fn rec_push(
        &mut self,
        kind: RecKind,
        site: u32,
        value: u64,
        modifier: u64,
        key: Option<KeyId>,
    ) {
        let s = &self.code.sites[site as usize];
        let cycle = self.op_cycle(s.inst as usize);
        let func = self.frames.last().map_or(u32::MAX, |f| f.func.0);
        let r = self.rec.as_deref_mut().expect("recorder armed");
        r.push(RecEvent { cycle, kind, func, site, addr: 0, value, modifier, key });
    }

    /// Records one siteless event of the current frame at `cycle`: a
    /// load, store, free, scope transition or attacker write.
    #[inline(never)]
    fn rec_plain(&mut self, kind: RecKind, cycle: u64, addr: u64, value: u64) {
        let func = self.frames.last().map_or(u32::MAX, |f| f.func.0);
        let r = self.rec.as_deref_mut().expect("recorder armed");
        r.push(RecEvent { cycle, kind, func, site: NO_SITE, addr, value, modifier: 0, key: None });
    }

    /// Synthesizes the structured [`Incident`] for the first detection
    /// trap of a recorded run, from the audit record just taken and the
    /// presented `value` and `key`: records the trap's own `auth_fail`
    /// event at check site `site`, resolves the sign-site lineage of the
    /// presented value from the ring, and freezes the scope timeline and
    /// event window. Cold — a detection ends the run.
    #[cold]
    #[inline(never)]
    fn rec_synthesize(
        &mut self,
        trap: &'static str,
        site: u32,
        value: u64,
        key: Option<KeyId>,
        found: u64,
        expected: u64,
    ) {
        let audit = self.audit.last().cloned().expect("audit record taken first");
        let modifier = audit.modifier;
        // The trap itself closes the window.
        self.rec_push(RecKind::AuthFail, site, value, modifier, key);
        let img = self.img;
        let m = &img.module;
        let sites = &self.code.sites;
        let func = self.cur_func_name();
        let line = sites[site as usize].line;
        let Some(r) = self.rec.as_deref() else { return };
        if r.incident.is_some() {
            return; // first detection only
        }
        let events = r.in_order();
        let cycle = events.last().map_or(self.cycles, |e| e.cycle);
        let func_name = |fi: u32| {
            m.funcs.get(fi as usize).map_or_else(|| "<none>".to_string(), |f| f.name.clone())
        };
        let resolve = |e: &RecEvent| IncidentEvent {
            cycle: e.cycle,
            kind: e.kind.name().to_string(),
            func: func_name(e.func),
            site: site_label(sites, e.site),
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
                site: site_label(sites, e.site),
                func: func_name(e.func),
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
            check_site: site_label(sites, site),
            check_kind: audit.inst,
            pac_site: audit.site,
            presented_modifier: modifier,
            presented_key: key_label(key).to_string(),
            presented_value: value,
            found_pac: found,
            expected_pac: expected,
            lineage,
            scope_timeline,
            window,
            dropped_events: r.dropped,
            detail: audit.detail,
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

    /// Commits the frame position `(block, idx)`: a call stores where
    /// the caller resumes. The driver does not touch the frame on
    /// straight-line block transfers, so the block index is written too.
    #[cold]
    #[inline(never)]
    fn commit_pos(&mut self, block: usize, idx: usize) {
        let fr = self.frames.last_mut().expect("active frame");
        fr.block = block;
        fr.idx = idx;
    }

    /// Builds the audit record for a detection trap at check site `sid`,
    /// appends it to the run's audit log, and forwards it to the global
    /// collector. The record's `inst` and `line` are the check's in the
    /// image's site table.
    fn record_audit(&mut self, sid: u32, site: &'static str, modifier: u64, detail: String) {
        let check = &self.code.sites[sid as usize];
        let rec = AuditRecord {
            mechanism: self
                .img
                .mechanism
                .map_or_else(|| "baseline".to_string(), |m| m.name().to_string()),
            modifier,
            site: site.to_string(),
            func: self.cur_func_name(),
            line: check.line,
            inst: check.kind.to_string(),
            detail,
        };
        rsti_telemetry::global().record_violation(&rec);
        self.audit.push(rec);
    }

    /// The one auth-failure report, for both enforcement backends: a PAC
    /// mismatch (`found` is the pointer's PAC) or a missing or stale MAC
    /// (`found` is 0). `value` and `modifier` are what the check
    /// authenticated — the flight recorder's forensic inputs when it is
    /// armed.
    ///
    /// Cold and out of line, like [`Vm::pp_fail`]: a detection ends the
    /// run, and keeping the string formatting out of the op rules keeps
    /// them small.
    #[cold]
    #[inline(never)]
    fn auth_fail(
        &mut self,
        op: PaOp,
        value: u64,
        modifier: u64,
        found: u64,
        expected: u64,
    ) -> Box<Trap> {
        let detail = if op.mac {
            format!("MAC missing or stale, expected {expected:#x}")
        } else {
            format!("found PAC {found:#x}, expected {expected:#x}")
        };
        self.record_audit(op.site, pac_site_name(op.class), modifier, detail);
        if self.rec.is_some() {
            let key = Some(op.key);
            self.rec_synthesize("pac_auth_failure", op.site, value, key, found, expected);
        }
        Box::new(Trap::PacAuthFailure {
            func: self.cur_func_name(),
            line: self.code.sites[op.site as usize].line,
            site: op.class,
            found_pac: found,
            expected_pac: expected,
        })
    }

    /// Pointer-to-pointer metadata failure, reported like
    /// [`Vm::auth_fail`].
    #[cold]
    #[inline(never)]
    fn pp_fail(
        &mut self,
        sid: u32,
        modifier: u64,
        f: PpFail,
        value: u64,
        key: Option<KeyId>,
    ) -> Box<Trap> {
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
        self.record_audit(sid, "pp_metadata", modifier, detail);
        if self.rec.is_some() {
            self.rec_synthesize("pp_auth_failure", sid, value, key, 0, 0);
        }
        Box::new(Trap::PpAuthFailure { func: self.cur_func_name(), reason })
    }

    fn cur_func_name(&self) -> String {
        self.frames
            .last()
            .and_then(|f| self.img.module.funcs.get(f.func.0 as usize))
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "<none>".into())
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
            self.rec_plain(RecKind::ScopeEnter, self.cycles, 0, 0);
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
    fn as_ptr(&self, v: RtVal) -> Result<u64, Box<Trap>> {
        match v {
            RtVal::P(p) => Ok(p),
            RtVal::I(i) => Ok(i as u64), // integer used as pointer (C laxity)
            RtVal::F(_) => Err(bad_program("float used as pointer")),
        }
    }

    /// Checks canonical form and returns the translated address.
    #[inline(always)]
    fn deref_addr(&self, p: u64) -> Result<u64, Box<Trap>> {
        if !VA.is_canonical(p) {
            // Non-canonical (PAC-carrying, poisoned, forged): hardware
            // translation faults.
            return Err(self.noncanonical_trap(p));
        }
        Ok(VA.canonical(p))
    }

    #[cold]
    #[inline(never)]
    fn noncanonical_trap(&self, p: u64) -> Box<Trap> {
        Box::new(Trap::Mem { func: self.cur_func_name(), fault: MemFault::Unmapped { addr: p } })
    }

    #[cold]
    #[inline(never)]
    fn mem_err(&self, fault: MemFault) -> Box<Trap> {
        Box::new(Trap::Mem { func: self.cur_func_name(), fault })
    }

    /// The return epilogue every run shares: pops the frame and hands
    /// `val` to the caller, or ends the run when `main` returns.
    fn exec_ret(&mut self, val: Option<RtVal>) -> Result<(), Trap> {
        // Without a shadow stack, the epilogue loads the return
        // address from memory. A corrupted value redirects control
        // — the ROP surface the paper's §3 assumption closes.
        if let Some((slot, expected)) = self.frames.last().and_then(|f| f.ret_slot) {
            let found = self.mem.read_u64(slot).map_err(|e| *self.mem_err(e))?;
            if found != expected {
                if self.rec.is_some() {
                    self.rec_plain(RecKind::ScopeExit, self.cycles, 0, 0);
                }
                let fr = self.frames.pop().expect("frame");
                self.stack_top = fr.stack_mark;
                self.sync_reg_window(fr.reg_base);
                self.recycle(fr);
                let target = VA.canonical(found);
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
        if self.rec.is_some() {
            // Scope exit, in the one epilogue every run shares.
            self.rec_plain(RecKind::ScopeExit, self.cycles, 0, 0);
        }
        let fr = self.frames.pop().expect("frame");
        self.stack_top = fr.stack_mark;
        self.sync_reg_window(fr.reg_base);
        if let Some(a) = self.attr.as_deref_mut() {
            // Completed activation: inclusive cycles, entry→return.
            a.funcs[fr.func.0 as usize].incl.record(self.cycles - fr.entry_cycles);
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
/// `Cmp` op). The common `(I, I)` arm leads.
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

/// Fills an id-checked image's data at the layout its translation `code`
/// computed: the globals and strings segments, global initializers, and
/// load-time signing of static pointer initializers through the sign op's
/// split (`compile::sign`): signed in place, or their boot MACs into
/// `mac_table`.
///
/// # Errors
/// A [`Trap::Mem`] when the segments are larger than the VM hosts.
fn load_data(
    img: &Image,
    code: &compile::CompiledModule,
    pac: &mut PacUnit,
    mac_table: &mut HashMap<u64, u64>,
) -> Result<Memory, Trap> {
    let m = &img.module;
    let (gaddr, saddr) = (&code.gaddr, &code.saddr);
    // Segment sizes are program-derived (a huge global array inflates
    // the globals segment): an oversized request is a trap, not a host
    // abort.
    let [goff, soff] = code.data_sizes;
    let mut mem =
        Memory::new(goff.max(8), soff.max(8), layout::HEAP_SIZE, layout::STACK_SIZE)
            .map_err(|fault| Trap::Mem { func: "<loader>".into(), fault })?;
    // String contents (program-read-only segment; written here via the
    // loader's privileged path).
    for (s, &a) in m.strings.iter().zip(saddr) {
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        mem.attacker_write(a, &bytes).expect("string fits");
    }
    for (g, &a) in m.globals.iter().zip(gaddr) {
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
        let mac = img.backend == Backend::MacTable;
        let (signed, mac) = compile::sign(pac, mac, key_id(gs.key), raw, modifier);
        mem.write_u64(a, signed).expect("global mapped");
        if let Some(mac) = mac {
            mac_table.insert(a, mac);
        }
    }
    Ok(mem)
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
