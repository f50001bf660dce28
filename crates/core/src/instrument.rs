//! The RSTI instrumentation pass.
//!
//! Rewrites a module so that every pointer load/store is guarded by PA
//! (§4.7):
//!
//! * **on-store signing** — a pointer value is signed with its storage's
//!   RSTI-type modifier immediately before the store, so pointers at rest
//!   in memory always carry a PAC;
//! * **on-load authentication** — a pointer is authenticated right after
//!   the load with the same modifier; a corrupted or substituted pointer
//!   poisons and the first use traps ("the authenticated address is always
//!   in a register", §4.7.2 — registers are outside the attacker's reach);
//! * **cast / argument re-signing** — STWC re-signs pointer arguments that
//!   were cast (§4.6); STL re-signs *every* pointer argument because the
//!   location changes; STC needs neither (compatible classes are merged);
//! * **external-call stripping** — PACs are stripped before pointers enter
//!   uninstrumented code (§7);
//! * **pointer-to-pointer CE/FE** — lost-type double-pointer arguments are
//!   wrapped in `pp_add`/`pp_sign`/`pp_add_tbi`, and the receiving
//!   parameter's loads use `pp_auth` (§4.7.7);
//! * **static initializers** — pointer-typed globals initialized with
//!   function or string addresses are recorded so the loader (the VM)
//!   signs them before `main` runs.

use crate::ptr2ptr::{plan_pp, PpPlan};
use crate::replay::DEFAULT_ECV_THRESHOLD;
use crate::sti::{analyze, Mechanism, StiAnalysis};
use crate::storage::{operand_type, root_of_value, storage_of_addr, DefMap, StorageKey};
use rsti_ir::{
    BasicBlock, GlobalId, GlobalInit, Inst, InstNode, Module, PacKey, PacSite,
    TypeId, ValueId, VarId,
};

/// Instrumentation-site counters (per module). These are the quantities
/// the paper correlates with overhead (§6.3.2: Pearson 0.75–0.8 between
/// instrumented load/stores and slowdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrumentStats {
    /// On-store signs inserted.
    pub signs_on_store: usize,
    /// On-load authentications inserted.
    pub auths_on_load: usize,
    /// STWC cast-boundary re-sign pairs (each pair = 1 auth + 1 sign).
    pub cast_resigns: usize,
    /// STL argument re-sign pairs.
    pub arg_resigns: usize,
    /// PAC strips before external calls.
    pub strips: usize,
    /// `pp_add`/`pp_sign`/`pp_add_tbi` triples inserted.
    pub pp_signs: usize,
    /// `pp_auth` loads inserted.
    pub pp_auths: usize,
}

impl InstrumentStats {
    /// Total PA operations inserted (the cost driver).
    pub fn total_pac_ops(&self) -> usize {
        self.signs_on_store
            + self.auths_on_load
            + 2 * self.cast_resigns
            + 2 * self.arg_resigns
            + self.strips
            + 3 * self.pp_signs
            + self.pp_auths
    }
}

/// Load-time signing directive for a pointer-typed global with a non-zero
/// initializer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalSign {
    /// The global to sign.
    pub global: GlobalId,
    /// Key to sign with.
    pub key: PacKey,
    /// Static modifier.
    pub modifier: u64,
    /// Whether to XOR the global's own address into the modifier (STL).
    pub mix_location: bool,
}

/// An instrumented program: the rewritten module plus everything the
/// runtime needs.
#[derive(Debug, Clone)]
pub struct InstrumentedProgram {
    /// The rewritten module.
    pub module: Module,
    /// Mechanism used.
    pub mechanism: Mechanism,
    /// The analysis the instrumentation was derived from (computed on the
    /// original module; storage keys remain valid).
    pub analysis: StiAnalysis,
    /// The pointer-to-pointer plan.
    pub pp_plan: PpPlan,
    /// Site counters.
    pub stats: InstrumentStats,
    /// Globals the loader must sign before `main`.
    pub global_signing: Vec<GlobalSign>,
}

/// When the runtime modifier mixes the slot address (`&p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocPolicy {
    /// Never (STC, STWC, PARTS).
    Never,
    /// Every site (STL).
    Always,
    /// Only storage whose RSTI-type has more members than the threshold —
    /// the paper's §7 adaptive proposal.
    ClassesLargerThan(usize),
}

impl LocPolicy {
    fn applies(&self, analysis: &StiAnalysis, key: StorageKey) -> bool {
        match self {
            LocPolicy::Never => false,
            LocPolicy::Always => true,
            LocPolicy::ClassesLargerThan(t) => analysis
                .class_of(key)
                .map(|c| c.members.len() > *t)
                .unwrap_or(false),
        }
    }
}

/// Fallback modifier for storage with no analysis class (should not occur
/// in practice; kept total for robustness).
fn fallback_modifier(m: &Module, ty: TypeId) -> u64 {
    let mut h: u64 = 0x2545F4914F6CDD1D;
    for b in m.types.display(ty).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Instruments `m` under `mechanism`. The input module must not already be
/// instrumented.
pub fn instrument(m: &Module, mechanism: Mechanism) -> InstrumentedProgram {
    let analysis = analyze(m, mechanism);
    let pp_plan = if mechanism == Mechanism::Parts {
        PpPlan::default()
    } else {
        plan_pp(m, &analysis)
    };
    let loc_policy = if mechanism.uses_location() {
        LocPolicy::Always
    } else {
        LocPolicy::Never
    };
    finish_instrument(m, mechanism, analysis, pp_plan, loc_policy)
}

/// The paper's §7 adaptive variant: STWC everywhere, plus STL-style
/// location binding for storage whose equivalence class exceeds
/// `ecv_threshold` members (e.g. xalancbmk's 122-variable class).
/// Costs sit between STWC and STL; large-class substitution is closed.
pub fn instrument_adaptive(m: &Module, ecv_threshold: usize) -> InstrumentedProgram {
    let analysis = analyze(m, Mechanism::Stwc);
    let pp_plan = plan_pp(m, &analysis);
    finish_instrument(
        m,
        Mechanism::Stwc,
        analysis,
        pp_plan,
        LocPolicy::ClassesLargerThan(ecv_threshold),
    )
}

/// What a CLI `--mech` flag or a `serve` request's `mech` field selects:
/// an uninstrumented baseline, one fixed mechanism, or the §7 adaptive
/// hardening (STWC plus location binding for oversized classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechChoice {
    /// No instrumentation.
    Baseline,
    /// One fixed mechanism.
    Fixed(Mechanism),
    /// [`instrument_adaptive`] at [`DEFAULT_ECV_THRESHOLD`].
    Adaptive,
}

impl From<Mechanism> for MechChoice {
    fn from(m: Mechanism) -> Self {
        MechChoice::Fixed(m)
    }
}

/// `None` is the uninstrumented baseline.
impl From<Option<Mechanism>> for MechChoice {
    fn from(m: Option<Mechanism>) -> Self {
        m.map_or(MechChoice::Baseline, MechChoice::Fixed)
    }
}

impl MechChoice {
    /// Parses `stwc|stc|stl|parts|none|adaptive` (any case), plus the
    /// `rsti-*` long forms and the `baseline` alias.
    ///
    /// # Errors
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<MechChoice, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "stwc" | "rsti-stwc" => MechChoice::Fixed(Mechanism::Stwc),
            "stc" | "rsti-stc" => MechChoice::Fixed(Mechanism::Stc),
            "stl" | "rsti-stl" => MechChoice::Fixed(Mechanism::Stl),
            "parts" => MechChoice::Fixed(Mechanism::Parts),
            "none" | "baseline" => MechChoice::Baseline,
            "adaptive" => MechChoice::Adaptive,
            other => {
                return Err(format!(
                    "unknown mechanism `{other}` (stwc|stc|stl|parts|none|adaptive)"
                ))
            }
        })
    }

    /// Short stable label (`baseline`, `stwc`, ..., `adaptive`); one axis
    /// of `serve`'s content-addressed cache key.
    pub fn label(self) -> &'static str {
        match self {
            MechChoice::Baseline => "baseline",
            MechChoice::Fixed(m) => m.label(),
            MechChoice::Adaptive => "adaptive",
        }
    }

    /// Display name for headers (`baseline`, `RSTI-STWC`, ..., `adaptive`).
    pub fn name(self) -> &'static str {
        match self {
            MechChoice::Fixed(m) => m.name(),
            other => other.label(),
        }
    }

    /// The mechanism the instrumented code runs under (adaptive builds on
    /// STWC); `None` for the baseline.
    pub fn mechanism(self) -> Option<Mechanism> {
        match self {
            MechChoice::Baseline => None,
            MechChoice::Fixed(m) => Some(m),
            MechChoice::Adaptive => Some(Mechanism::Stwc),
        }
    }

    /// Instruments `m` as chosen; `None` for the baseline.
    pub fn instrument(self, m: &Module) -> Option<InstrumentedProgram> {
        match self {
            MechChoice::Baseline => None,
            MechChoice::Fixed(mech) => Some(instrument(m, mech)),
            MechChoice::Adaptive => Some(instrument_adaptive(m, DEFAULT_ECV_THRESHOLD)),
        }
    }
}

fn finish_instrument(
    m: &Module,
    mechanism: Mechanism,
    analysis: StiAnalysis,
    pp_plan: PpPlan,
    loc_policy: LocPolicy,
) -> InstrumentedProgram {
    let tel = rsti_telemetry::global();
    let _span = tel.span(rsti_telemetry::Phase::Instrument);
    let mut out = m.clone();
    let mut stats = InstrumentStats::default();

    for (fid, _) in m.funcs() {
        if m.func(fid).is_external {
            continue;
        }
        let rewritten =
            rewrite_function(m, fid, mechanism, &analysis, &pp_plan, loc_policy, &mut stats);
        out.funcs[fid.0 as usize] = rewritten;
    }

    // Static pointer initializers must be signed at load time.
    let mut global_signing = Vec::new();
    for (gi, g) in m.globals.iter().enumerate() {
        let gid = GlobalId(gi as u32);
        if !m.types.is_ptr(g.ty) {
            continue;
        }
        if matches!(g.init, GlobalInit::FuncAddr(_) | GlobalInit::Str(_)) {
            let key = StorageKey::Var(g.var);
            let (modifier, code) = match analysis.class_of(key) {
                Some(c) => (c.modifier, c.code_ptr),
                None => (fallback_modifier(m, g.ty), m.types.is_func_ptr(g.ty)),
            };
            global_signing.push(GlobalSign {
                global: gid,
                key: if code { PacKey::Ia } else { PacKey::Da },
                modifier,
                mix_location: loc_policy.applies(&analysis, key),
            });
        }
    }

    debug_assert!(
        rsti_ir::verify_module(&out).is_ok(),
        "instrumentation produced ill-formed IR: {:#?}",
        rsti_ir::verify_module(&out).err()
    );

    use rsti_telemetry::CounterId;
    tel.add(CounterId::SignsInserted, (stats.signs_on_store + stats.cast_resigns
        + stats.arg_resigns + stats.pp_signs) as u64);
    tel.add(CounterId::AuthsInserted, (stats.auths_on_load + stats.cast_resigns
        + stats.arg_resigns + stats.pp_auths) as u64);
    tel.add(CounterId::StripsInserted, stats.strips as u64);
    tel.add(CounterId::PpSitesInserted, (stats.pp_signs + stats.pp_auths) as u64);

    InstrumentedProgram { module: out, mechanism, analysis, pp_plan, stats, global_signing }
}

/// The (key, modifier, is-code) triple for a storage key.
fn class_info(
    m: &Module,
    analysis: &StiAnalysis,
    key: StorageKey,
    ty: TypeId,
) -> (PacKey, u64) {
    match analysis.class_of(key) {
        Some(c) => (if c.code_ptr { PacKey::Ia } else { PacKey::Da }, c.modifier),
        None => (
            if m.types.is_func_ptr(ty) { PacKey::Ia } else { PacKey::Da },
            fallback_modifier(m, ty),
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn rewrite_function(
    m: &Module,
    fid: rsti_ir::FuncId,
    mechanism: Mechanism,
    analysis: &StiAnalysis,
    pp_plan: &PpPlan,
    loc_policy: LocPolicy,
    stats: &mut InstrumentStats,
) -> rsti_ir::Function {
    let f = m.func(fid);
    let defs = DefMap::new(f);
    let mut new_f = f.clone();

    // Fresh values extend the cloned function's table.
    let mut next_value = new_f.value_types.len() as u32;
    let mut fresh = |tys: &mut Vec<TypeId>, ty: TypeId| {
        let id = ValueId(next_value);
        next_value += 1;
        tys.push(ty);
        id
    };

    let tagged_param_key = |v: VarId| pp_plan.tagged_params.contains(&v);

    for (bi, blk) in f.blocks.iter().enumerate() {
        let mut out = BasicBlock::new();
        out.term = blk.term.clone();
        out.term_loc = blk.term_loc;

        for node in &blk.insts {
            let loc = node.loc;
            match &node.inst {
                Inst::Store { value, ptr } => {
                    let vty = operand_type(m, f, value);
                    if !m.types.is_ptr(vty) {
                        out.insts.push(node.clone());
                        continue;
                    }
                    let key = storage_of_addr(m, f, &defs, ptr);
                    // Spill of a tagged universal double-pointer parameter:
                    // the value arrives already pp-signed and tagged; store
                    // it untouched so the tag survives in memory.
                    if let StorageKey::Var(v) = key {
                        if tagged_param_key(v) {
                            let root = root_of_value(m, f, &defs, value);
                            if root.key == Some(key) && !root.casted {
                                out.insts.push(node.clone());
                                continue;
                            }
                        }
                    }
                    let (pac_key, modifier) = class_info(m, analysis, key, vty);
                    let use_loc = loc_policy.applies(analysis, key);
                    let signed = fresh(&mut new_f.value_types, vty);
                    out.insts.push(InstNode {
                        inst: Inst::PacSign {
                            result: signed,
                            value: value.clone(),
                            key: pac_key,
                            modifier,
                            loc: use_loc.then(|| ptr.clone()),
                            site: PacSite::OnStore,
                        },
                        loc,
                    });
                    stats.signs_on_store += 1;
                    out.insts.push(InstNode {
                        inst: Inst::Store { value: signed.into(), ptr: ptr.clone() },
                        loc,
                    });
                }
                Inst::Load { result, ptr, ty } => {
                    if !m.types.is_ptr(*ty) {
                        out.insts.push(node.clone());
                        continue;
                    }
                    let key = storage_of_addr(m, f, &defs, ptr);
                    let raw = fresh(&mut new_f.value_types, *ty);
                    out.insts.push(InstNode {
                        inst: Inst::Load { result: raw, ptr: ptr.clone(), ty: *ty },
                        loc,
                    });
                    if let StorageKey::Var(v) = key {
                        if tagged_param_key(v) {
                            out.insts.push(InstNode {
                                inst: Inst::PpAuth {
                                    result: *result,
                                    value: raw.into(),
                                    key: PacKey::Da,
                                },
                                loc,
                            });
                            stats.pp_auths += 1;
                            continue;
                        }
                    }
                    let (pac_key, modifier) = class_info(m, analysis, key, *ty);
                    let use_loc = loc_policy.applies(analysis, key);
                    out.insts.push(InstNode {
                        inst: Inst::PacAuth {
                            result: *result,
                            value: raw.into(),
                            key: pac_key,
                            modifier,
                            loc: use_loc.then(|| ptr.clone()),
                            site: PacSite::OnLoad,
                        },
                        loc,
                    });
                    stats.auths_on_load += 1;
                }
                Inst::BitCast { result, value, to } => {
                    out.insts.push(node.clone());
                    // §4.6: STWC "authenticates and re-signs pointers when
                    // casts happen"; STL does too (plus location). STC
                    // merged the classes, so the cast is free; PARTS only
                    // knows the element type and does nothing either.
                    let is_const = !matches!(value, rsti_ir::Operand::Value(_));
                    if matches!(mechanism, Mechanism::Stwc | Mechanism::Stl)
                        && m.types.is_ptr(*to)
                        && !is_const
                    {
                        let (pac_key, modifier) =
                            (PacKey::Da, fallback_modifier(m, *to));
                        let signed = fresh(&mut new_f.value_types, *to);
                        out.insts.push(InstNode {
                            inst: Inst::PacSign {
                                result: signed,
                                value: (*result).into(),
                                key: pac_key,
                                modifier,
                                loc: None,
                                site: PacSite::CastResign,
                            },
                            loc,
                        });
                        let authed = fresh(&mut new_f.value_types, *to);
                        out.insts.push(InstNode {
                            inst: Inst::PacAuth {
                                result: authed,
                                value: signed.into(),
                                key: pac_key,
                                modifier,
                                loc: None,
                                site: PacSite::CastResign,
                            },
                            loc,
                        });
                        stats.cast_resigns += 1;
                        // Later uses still read the original result id; the
                        // round-trip models the re-signing cost without
                        // rewiring the dataflow (its output equals its
                        // input on the clean in-register value).
                        let _ = authed;
                    }
                }
                Inst::Call { result, callee, args } => {
                    let callee_f = m.func(*callee);
                    let mut new_args = Vec::with_capacity(args.len());
                    for (i, a) in args.iter().enumerate() {
                        let aty = operand_type(m, f, a);
                        if !m.types.is_ptr(aty) {
                            new_args.push(a.clone());
                            continue;
                        }
                        if callee_f.is_external {
                            // §7: strip before entering uninstrumented code.
                            let stripped = fresh(&mut new_f.value_types, aty);
                            out.insts.push(InstNode {
                                inst: Inst::PacStrip { result: stripped, value: a.clone() },
                                loc,
                            });
                            stats.strips += 1;
                            new_args.push(stripped.into());
                            continue;
                        }
                        let root = root_of_value(m, f, &defs, a);
                        let orig_ty = root.root_ty.unwrap_or(aty);
                        let lost = root.casted
                            && orig_ty != aty
                            && m.types.ptr_depth(orig_ty) >= 2
                            && mechanism != Mechanism::Parts;
                        if lost {
                            // Figure 7 sequence: pp_add, pp_sign, pp_add_tbi.
                            if let Some(site) = pp_plan
                                .sites
                                .iter()
                                .find(|s| s.func == fid && s.original_ty == orig_ty)
                            {
                                out.insts.push(InstNode {
                                    inst: Inst::PpAdd {
                                        ce: site.ce,
                                        fe_modifier: site.fe_modifier,
                                    },
                                    loc,
                                });
                                let signed = fresh(&mut new_f.value_types, aty);
                                out.insts.push(InstNode {
                                    inst: Inst::PpSign {
                                        result: signed,
                                        value: a.clone(),
                                        ce: site.ce,
                                        key: PacKey::Da,
                                    },
                                    loc,
                                });
                                let tagged = fresh(&mut new_f.value_types, aty);
                                out.insts.push(InstNode {
                                    inst: Inst::PpAddTbi {
                                        result: tagged,
                                        value: signed.into(),
                                        ce: site.ce,
                                    },
                                    loc,
                                });
                                stats.pp_signs += 1;
                                new_args.push(tagged.into());
                                continue;
                            }
                        }
                        // Boundary re-signing: STWC on casted args; STL on
                        // every pointer arg (the location changes).
                        let resign = match mechanism {
                            Mechanism::Stwc => root.casted,
                            Mechanism::Stl => true,
                            Mechanism::Stc | Mechanism::Parts => false,
                        };
                        if resign {
                            let pkey = callee_f
                                .params
                                .get(i)
                                .and_then(|(_, v)| *v)
                                .map(StorageKey::Var);
                            let (pac_key, modifier) = match pkey {
                                Some(k) => class_info(m, analysis, k, aty),
                                None => (PacKey::Da, fallback_modifier(m, aty)),
                            };
                            let site = if mechanism == Mechanism::Stl && !root.casted {
                                PacSite::ArgResign
                            } else {
                                PacSite::CastResign
                            };
                            let signed = fresh(&mut new_f.value_types, aty);
                            out.insts.push(InstNode {
                                inst: Inst::PacSign {
                                    result: signed,
                                    value: a.clone(),
                                    key: pac_key,
                                    modifier,
                                    loc: None,
                                    site,
                                },
                                loc,
                            });
                            let authed = fresh(&mut new_f.value_types, aty);
                            out.insts.push(InstNode {
                                inst: Inst::PacAuth {
                                    result: authed,
                                    value: signed.into(),
                                    key: pac_key,
                                    modifier,
                                    loc: None,
                                    site,
                                },
                                loc,
                            });
                            if site == PacSite::ArgResign {
                                stats.arg_resigns += 1;
                            } else {
                                stats.cast_resigns += 1;
                            }
                            new_args.push(authed.into());
                            continue;
                        }
                        new_args.push(a.clone());
                    }
                    out.insts.push(InstNode {
                        inst: Inst::Call { result: *result, callee: *callee, args: new_args },
                        loc,
                    });
                }
                Inst::CallIndirect { result, callee, args, sig } => {
                    let mut new_args = Vec::with_capacity(args.len());
                    for a in args.iter() {
                        let aty = operand_type(m, f, a);
                        let resign = m.types.is_ptr(aty)
                            && match mechanism {
                                Mechanism::Stl => true,
                                Mechanism::Stwc => {
                                    root_of_value(m, f, &defs, a).casted
                                }
                                _ => false,
                            };
                        if !resign {
                            new_args.push(a.clone());
                            continue;
                        }
                        // The callee is dynamic: bind to the argument's
                        // static-type class (all the compiler can know).
                        let (pac_key, modifier) = (PacKey::Da, fallback_modifier(m, aty));
                        let signed = fresh(&mut new_f.value_types, aty);
                        out.insts.push(InstNode {
                            inst: Inst::PacSign {
                                result: signed,
                                value: a.clone(),
                                key: pac_key,
                                modifier,
                                loc: None,
                                site: PacSite::ArgResign,
                            },
                            loc,
                        });
                        let authed = fresh(&mut new_f.value_types, aty);
                        out.insts.push(InstNode {
                            inst: Inst::PacAuth {
                                result: authed,
                                value: signed.into(),
                                key: pac_key,
                                modifier,
                                loc: None,
                                site: PacSite::ArgResign,
                            },
                            loc,
                        });
                        stats.arg_resigns += 1;
                        new_args.push(authed.into());
                    }
                    out.insts.push(InstNode {
                        inst: Inst::CallIndirect {
                            result: *result,
                            callee: callee.clone(),
                            sig: sig.clone(),
                            args: new_args,
                        },
                        loc,
                    });
                }
                _ => out.insts.push(node.clone()),
            }
        }
        // STL: a returned pointer changes location (callee frame → caller),
        // so it is re-signed at the boundary like an argument (§4.6).
        if mechanism == Mechanism::Stl {
            if let rsti_ir::Terminator::Ret(Some(op)) = &blk.term {
                let rty = operand_type(m, f, op);
                if m.types.is_ptr(rty) {
                    let modifier = fallback_modifier(m, rty);
                    let signed = fresh(&mut new_f.value_types, rty);
                    out.insts.push(InstNode {
                        inst: Inst::PacSign {
                            result: signed,
                            value: op.clone(),
                            key: PacKey::Da,
                            modifier,
                            loc: None,
                            site: PacSite::ArgResign,
                        },
                        loc: blk.term_loc,
                    });
                    let authed = fresh(&mut new_f.value_types, rty);
                    out.insts.push(InstNode {
                        inst: Inst::PacAuth {
                            result: authed,
                            value: signed.into(),
                            key: PacKey::Da,
                            modifier,
                            loc: None,
                            site: PacSite::ArgResign,
                        },
                        loc: blk.term_loc,
                    });
                    stats.arg_resigns += 1;
                    out.term = rsti_ir::Terminator::Ret(Some(authed.into()));
                }
            }
        }
        new_f.blocks[bi] = out;
    }
    new_f
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_frontend::compile;
    use rsti_ir::{Inst, Operand};

    const PROG: &str = r#"
        struct ctx { void (*send_file)(int x); };
        void foo(struct ctx* c) { }
        void baz(struct ctx* c) { foo(c); }
        void foo2(void* v_ctx) { foo((struct ctx*) v_ctx); }
        int main() {
            struct ctx* c = (struct ctx*) malloc(sizeof(struct ctx));
            foo2((void*) c);
            baz(c);
            return 0;
        }
    "#;

    #[test]
    fn all_pointer_stores_signed_and_loads_authed() {
        let m = compile(PROG, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        // Every pointer store in the instrumented module is preceded by a
        // PacSign whose result feeds the store.
        for (_, f) in p.module.funcs() {
            let mut prev: Option<&Inst> = None;
            for n in f.insts() {
                if let Inst::Store { value, .. } = &n.inst {
                    let vty = match value {
                        Operand::Value(v) => f.value_type(*v),
                        Operand::ConstInt(_, t) | Operand::Null(t) => *t,
                        _ => continue,
                    };
                    if p.module.types.is_ptr(vty) {
                        assert!(
                            matches!(prev, Some(Inst::PacSign { .. })),
                            "unsigned pointer store in {}",
                            f.name
                        );
                    }
                }
                prev = Some(&n.inst);
            }
        }
        assert!(p.stats.signs_on_store > 0);
        assert!(p.stats.auths_on_load > 0);
        rsti_ir::verify_module(&p.module).unwrap();
    }

    #[test]
    fn mechanism_cost_ordering_matches_paper() {
        let m = compile(PROG, "p").unwrap();
        let stc = instrument(&m, Mechanism::Stc).stats.total_pac_ops();
        let stwc = instrument(&m, Mechanism::Stwc).stats.total_pac_ops();
        let stl = instrument(&m, Mechanism::Stl).stats.total_pac_ops();
        assert!(stc <= stwc, "STC ({stc}) must not exceed STWC ({stwc})");
        assert!(stwc < stl, "STWC ({stwc}) must be cheaper than STL ({stl})");
    }

    #[test]
    fn stwc_resigns_cast_arguments_stl_resigns_all() {
        let m = compile(PROG, "p").unwrap();
        let stwc = instrument(&m, Mechanism::Stwc);
        assert!(stwc.stats.cast_resigns > 0, "{:?}", stwc.stats);
        assert_eq!(stwc.stats.arg_resigns, 0);
        let stc = instrument(&m, Mechanism::Stc);
        assert_eq!(stc.stats.cast_resigns, 0, "{:?}", stc.stats);
        let stl = instrument(&m, Mechanism::Stl);
        assert!(stl.stats.arg_resigns + stl.stats.cast_resigns > stwc.stats.cast_resigns);
    }

    #[test]
    fn stl_loads_carry_location_operands() {
        let m = compile(PROG, "p").unwrap();
        let p = instrument(&m, Mechanism::Stl);
        let mut found = false;
        for (_, f) in p.module.funcs() {
            for n in f.insts() {
                if let Inst::PacAuth { loc: Some(_), .. } = n.inst {
                    found = true;
                }
            }
        }
        assert!(found, "STL must mix &p into modifiers");
        // STWC must not.
        let p = instrument(&m, Mechanism::Stwc);
        for (_, f) in p.module.funcs() {
            for n in f.insts() {
                if let Inst::PacAuth { loc, site, .. } = &n.inst {
                    assert!(loc.is_none(), "unexpected location in STWC at {site:?}");
                }
            }
        }
    }

    #[test]
    fn external_calls_strip_pointer_args() {
        let src = r#"
            extern void syslog(char* msg);
            int main() {
                char* s = "x";
                syslog(s);
                return 0;
            }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        assert_eq!(p.stats.strips, 1);
        let main = p.module.func_by_name("main").unwrap();
        assert!(p
            .module
            .func(main)
            .insts()
            .any(|n| matches!(n.inst, Inst::PacStrip { .. })));
    }

    #[test]
    fn lost_type_double_pointer_args_get_pp_instrumentation() {
        let src = r#"
            struct node { int key; }
            ;
            void sink(void** pp) {
                void* inner = *pp;
            }
            int main() {
                struct node* p = (struct node*) malloc(sizeof(struct node));
                sink((void**) &p);
                return 0;
            }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        assert_eq!(p.stats.pp_signs, 1, "{:?}", p.stats);
        assert!(p.stats.pp_auths >= 1, "{:?}", p.stats);
        let main = p.module.func_by_name("main").unwrap();
        let seq: Vec<&Inst> = p.module.func(main).insts().map(|n| &n.inst).collect();
        let add = seq.iter().position(|i| matches!(i, Inst::PpAdd { .. })).unwrap();
        let sgn = seq.iter().position(|i| matches!(i, Inst::PpSign { .. })).unwrap();
        let tbi = seq.iter().position(|i| matches!(i, Inst::PpAddTbi { .. })).unwrap();
        assert!(add < sgn && sgn < tbi, "Figure 7 ordering: pp_add, pp_sign, pp_add_tbi");
    }

    #[test]
    fn globals_with_code_pointer_initializers_are_load_signed() {
        let src = r#"
            void handler() { }
            void (*g_hook)() = handler;
            int main() {
                g_hook();
                return 0;
            }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument(&m, Mechanism::Stwc);
        assert_eq!(p.global_signing.len(), 1);
        assert_eq!(p.global_signing[0].key, PacKey::Ia, "code pointers use the I-key");
        assert!(!p.global_signing[0].mix_location);
        let p = instrument(&m, Mechanism::Stl);
        assert!(p.global_signing[0].mix_location, "STL mixes the global's address");
    }

    #[test]
    fn parts_baseline_skips_pp_and_resigns() {
        let m = compile(PROG, "p").unwrap();
        let p = instrument(&m, Mechanism::Parts);
        assert_eq!(p.stats.cast_resigns, 0);
        assert_eq!(p.stats.arg_resigns, 0);
        assert_eq!(p.stats.pp_signs, 0);
        assert!(p.stats.signs_on_store > 0, "PARTS still signs data pointers");
    }

    #[test]
    fn adaptive_cost_sits_between_stwc_and_stl() {
        let m = compile(PROG, "p").unwrap();
        let stwc = instrument(&m, Mechanism::Stwc).stats.total_pac_ops();
        let stl = instrument(&m, Mechanism::Stl).stats.total_pac_ops();
        // Threshold 0: every class is "hot" → every site gets a location,
        // but arg re-signing stays STWC-shaped, so cost <= STL.
        let adaptive = instrument_adaptive(&m, 0).stats.total_pac_ops();
        assert!(adaptive >= stwc, "adaptive {adaptive} < stwc {stwc}");
        assert!(adaptive <= stl, "adaptive {adaptive} > stl {stl}");
        // A huge threshold degenerates to plain STWC.
        let lax = instrument_adaptive(&m, usize::MAX).stats.total_pac_ops();
        assert_eq!(lax, stwc);
    }

    #[test]
    fn adaptive_binds_location_only_on_hot_classes() {
        // Six same-fact globals form one hot class; a lone pointer stays
        // location-free.
        let src = r#"
            struct s { long v; };
            struct s* a; struct s* b; struct s* c;
            struct s* d; struct s* e; struct s* f;
            int* lone;
            void touch() {
                a = (struct s*) malloc(8); b = a; c = a; d = a; e = a; f = a;
                lone = (int*) malloc(4);
            }
            int main() { touch(); return 0; }
        "#;
        let m = compile(src, "p").unwrap();
        let p = instrument_adaptive(&m, 4);
        let mut with_loc = 0;
        let mut without_loc = 0;
        for (_, f) in p.module.funcs() {
            for n in f.insts() {
                if let Inst::PacSign { loc, site: PacSite::OnStore, .. } = &n.inst {
                    if loc.is_some() {
                        with_loc += 1;
                    } else {
                        without_loc += 1;
                    }
                }
            }
        }
        assert!(with_loc >= 6, "hot-class stores bind the location: {with_loc}");
        assert!(without_loc >= 1, "the lone pointer stays plain: {without_loc}");
    }

    #[test]
    fn instrumented_modules_always_verify() {
        for mech in Mechanism::ALL {
            let m = compile(PROG, "p").unwrap();
            let p = instrument(&m, mech);
            rsti_ir::verify_module(&p.module)
                .unwrap_or_else(|e| panic!("{mech}: {e:?}"));
        }
    }
}
