//! Interprocedural check optimization — the `--opt ipo` level.
//!
//! The paper's pipeline runs in the LTO phase over the combined module
//! (§5), so its optimizer sees *every* call boundary. The intraprocedural
//! levels ([`crate::optimize::OptLevel::Cfg`] and below) must instead
//! assume the worst at each `Call`: any memory could have changed, any
//! boundary re-sign might face a foreign signing domain. This module
//! supplies the three whole-program facts that remove those assumptions:
//!
//! 1. **Per-function effect summaries** ([`FuncSummary`]), computed
//!    bottom-up over the SCC condensation of [`rsti_ir::CallGraph`]: which
//!    named globals a function (transitively) writes, whether it writes
//!    through any pointer it did not allocate itself (`writes_unknown`),
//!    and whether it frees heap memory (`frees` — under the MAC-table
//!    backend a `free` is a metadata change, so it invalidates more than a
//!    data write would). Stores through a function's *own* allocas are
//!    invisible to callers: a callee frame is fresh memory no caller fact
//!    can alias. The elision engine then kills only what the callee can
//!    actually clobber ([`IpoAnalysis`] feeds
//!    [`crate::optimize::Elision::Ipo`]).
//! 2. **Internal-boundary resign folding**
//!    ([`fold_boundary_resigns`]): instrumentation models the
//!    callee-boundary re-signing cost as an adjacent `PacSign`→`PacAuth`
//!    round-trip under one `(key, modifier)` — an exact identity on the
//!    in-register value, applied sign-first, so it can never trap. At the
//!    whole-program level a direct call to a *defined* callee is a
//!    boundary between two scopes of the same signing domain, which is
//!    exactly the boundary the paper's LTO build erases; the pair folds
//!    away. External and indirect boundaries keep their re-signs.
//! 3. **Size-budgeted post-instrumentation inlining**
//!    ([`inline_small_functions`]): small callees splice into their
//!    callers through the shared inliner loop, removing the call boundary
//!    entirely; only the module gate (no recursion, no indirect call) is
//!    specific to this level. The spilled argument chains this exposes are
//!    then cleaned up by the sign→store forwarding of the
//!    [`crate::optimize::Elision::Ipo`] elision run.
//!
//! Everything here is gated on behaviour being bit-identical to the lower
//! levels — the fuzz oracle runs the full mechanism × level × engine
//! matrix — which drives the conservatisms documented on each pass.

use rsti_ir::{CallGraph, Inst, Module, Operand, PacSite, Terminator, ValueId};
use std::collections::{BTreeSet, HashMap};

/// Instruction budget of the pre-instrumentation leaf inliner
/// (`inline_leaf_functions`) in the Fig. 9 proxies' preparation: each
/// proxy is leaf-inlined at this budget before the build recipe
/// instruments and optimizes it. A pre-pass of the proxies only, not an
/// `OptLevel` stage.
pub const LEAF_INLINE_BUDGET: usize = 96;

/// Instruction budget for the post-instrumentation inliner, in
/// *instrumented* IR instructions. Twice [`LEAF_INLINE_BUDGET`], since
/// instrumentation roughly doubles a pointer-heavy body.
pub const IPO_INLINE_BUDGET: usize = 2 * LEAF_INLINE_BUDGET;

/// What one function (transitively) does to memory visible from a caller.
/// The lattice is three independent monotone facts; the summary of an SCC
/// is the union over its members, which is the fixpoint in one pass
/// because effects only accumulate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncSummary {
    /// Named globals written, directly or via callees.
    pub writes_globals: BTreeSet<u32>,
    /// Whether the function may write through a pointer whose target is
    /// statically unknown (a loaded/received pointer, or anything an
    /// indirect call or external callee might do).
    pub writes_unknown: bool,
    /// Whether the function may free heap memory (a MAC-table effect:
    /// entry removal invalidates facts about any heap location).
    pub frees: bool,
}

impl FuncSummary {
    fn union(&mut self, other: &FuncSummary) {
        self.writes_globals.extend(other.writes_globals.iter().copied());
        self.writes_unknown |= other.writes_unknown;
        self.frees |= other.frees;
    }

    /// Whether a call to this function kills strictly less than the
    /// intraprocedural `AllButNonEscaped` assumption.
    fn is_refinement(&self) -> bool {
        !self.frees && !self.writes_unknown
    }
}

/// The interprocedural context the `--opt ipo` pipeline threads through
/// the dataflow stages.
pub struct IpoAnalysis {
    /// One summary per module function, indexed by `FuncId`.
    pub summaries: Vec<FuncSummary>,
    /// Static direct-call sites whose kill the summaries refined below
    /// `AllButNonEscaped` (the `summary_kill_refinements` counter).
    pub refined_call_sites: usize,
}

impl IpoAnalysis {
    /// Computes summaries bottom-up over the call-graph condensation and
    /// counts the call sites they refine.
    pub fn build(m: &Module) -> IpoAnalysis {
        let cg = CallGraph::new(m);
        let summaries = summarize(m, &cg);
        let refined_call_sites = m
            .funcs
            .iter()
            .filter(|f| !f.is_external)
            .flat_map(|f| f.insts())
            .filter(|n| {
                matches!(&n.inst, Inst::Call { callee, .. }
                    if summaries[callee.0 as usize].is_refinement())
            })
            .count();
        IpoAnalysis { summaries, refined_call_sites }
    }
}

/// Local effects of one body plus the union of its sub-component callees'
/// summaries. Intra-SCC callees are skipped here; the per-SCC union in
/// [`summarize`] covers them.
fn local_effects(
    f: &rsti_ir::Function,
    scc_of: &[u32],
    my_scc: u32,
    summaries: &[FuncSummary],
) -> FuncSummary {
    let mut s = FuncSummary::default();
    if f.is_external {
        // No body to inspect. (The reproduction's externals only log an
        // event, but the summary models the general contract.)
        s.writes_unknown = true;
        return s;
    }
    // A function's own allocas: stores through them are frame-local and
    // invisible to any caller fact.
    let own_allocas: std::collections::HashSet<ValueId> = f
        .insts()
        .filter_map(|n| match &n.inst {
            Inst::Alloca { result, .. } => Some(*result),
            _ => None,
        })
        .collect();
    for node in f.insts() {
        match &node.inst {
            Inst::Store { ptr, .. } => match ptr {
                Operand::GlobalAddr(g, _) => {
                    s.writes_globals.insert(g.0);
                }
                Operand::Value(v) if own_allocas.contains(v) => {}
                _ => s.writes_unknown = true,
            },
            Inst::Free { .. } => s.frees = true,
            Inst::CallIndirect { .. } => {
                // Unknown target: could write or free anything.
                s.writes_unknown = true;
                s.frees = true;
            }
            Inst::Call { callee, .. } => {
                let ci = callee.0 as usize;
                if scc_of[ci] != my_scc {
                    // Bottom-up order guarantees this is already final.
                    s.union(&summaries[ci]);
                }
            }
            _ => {}
        }
    }
    s
}

/// Bottom-up summary computation: [`CallGraph::sccs`] is emitted
/// callees-first, so by the time a component is summarized every
/// out-of-component callee summary is final; the component-wide union then
/// resolves intra-component (recursive) calls in one step.
fn summarize(m: &Module, cg: &CallGraph) -> Vec<FuncSummary> {
    let mut summaries = vec![FuncSummary::default(); m.funcs.len()];
    for scc_idx in cg.bottom_up() {
        let comp = &cg.sccs[scc_idx];
        let mut s = FuncSummary::default();
        for &fid in comp {
            let local = local_effects(
                &m.funcs[fid.0 as usize],
                &cg.scc_of,
                scc_idx as u32,
                &summaries,
            );
            s.union(&local);
        }
        for &fid in comp {
            summaries[fid.0 as usize] = s.clone();
        }
    }
    summaries
}

/// Folds boundary re-sign round-trips at known-internal boundaries.
///
/// Instrumentation emits every boundary re-sign as an *adjacent*
/// `PacSign`→`PacAuth` pair under the same `(key, modifier, loc)` whose
/// auth consumes exactly the sign's result: `auth(sign(x))` is `x`
/// bit-for-bit, and — the sign being applied first to the in-register
/// value — the auth can never trap, corrupted memory or not. The pair is
/// pure modeled cost. It is *kept* where the boundary partner is outside
/// the static module view (indirect calls, external callees: the re-sign
/// models crossing into an unknown signing context) and folded where
/// whole-program knowledge proves both sides internal:
///
/// * arguments of a direct call to a defined callee, and
/// * `Ret` re-signs of any defined function except the entry (`main`'s
///   return value leaves the instrumented world; every other return lands
///   at an in-module call site — including indirect ones, whose *callees*
///   are by construction in-module).
///
/// Cast-model round-trips (`PacSite::CastResign` with an unused auth
/// result) are left alone: they price the mechanism's cast discipline,
/// not a call boundary, and removing them would distort the mechanism
/// comparison. The use-count checks below skip them automatically.
///
/// Returns the number of pairs folded (each removes one dynamic sign and
/// one dynamic auth per execution).
pub fn fold_boundary_resigns(m: &mut Module) -> usize {
    let mut folded = 0;
    let externals: Vec<bool> = m.funcs.iter().map(|f| f.is_external).collect();
    for f in &mut m.funcs {
        if f.is_external || f.blocks.is_empty() {
            continue;
        }
        let is_entry = f.name == "main";
        // One fold per iteration, recounting uses each time: folds change
        // use counts, and bodies are small enough that simplicity wins.
        loop {
            let mut use_count: HashMap<ValueId, usize> = HashMap::new();
            for blk in &f.blocks {
                let ops = blk.insts.iter().flat_map(|n| n.inst.operands());
                for op in ops.chain(blk.term.operand()) {
                    if let Operand::Value(v) = op {
                        *use_count.entry(*v).or_default() += 1;
                    }
                }
            }

            let mut action: Option<(usize, usize, Consumer)> = None;
            'scan: for (bi, blk) in f.blocks.iter().enumerate() {
                for (ii, node) in blk.insts.iter().enumerate() {
                    let Inst::PacSign {
                        result: s_res,
                        key: s_key,
                        modifier: s_mod,
                        loc: s_loc,
                        site: s_site,
                        ..
                    } = &node.inst
                    else {
                        continue;
                    };
                    if !matches!(s_site, PacSite::ArgResign | PacSite::CastResign) {
                        continue;
                    }
                    let Some(Inst::PacAuth {
                        result: a_res,
                        value: Operand::Value(a_val),
                        key: a_key,
                        modifier: a_mod,
                        loc: a_loc,
                        ..
                    }) = blk.insts.get(ii + 1).map(|n| &n.inst)
                    else {
                        continue;
                    };
                    if a_val != s_res
                        || a_key != s_key
                        || a_mod != s_mod
                        || a_loc != s_loc
                        || use_count.get(s_res).copied().unwrap_or(0) != 1
                    {
                        continue;
                    }
                    if let Some(c) =
                        find_internal_consumer(f, *a_res, &use_count, &externals, is_entry)
                    {
                        action = Some((bi, ii, c));
                        break 'scan;
                    }
                }
            }
            let Some((bi, ii, consumer)) = action else { break };
            let (s_val, a_res) = match (&f.blocks[bi].insts[ii].inst, &f.blocks[bi].insts[ii + 1].inst)
            {
                (Inst::PacSign { value, .. }, Inst::PacAuth { result, .. }) => {
                    (value.clone(), *result)
                }
                _ => unreachable!("action points at a sign/auth pair"),
            };
            match consumer {
                Consumer::CallArgs(cb, ci) => {
                    if let Inst::Call { args, .. } = &mut f.blocks[cb].insts[ci].inst {
                        for a in args {
                            if matches!(a, Operand::Value(v) if *v == a_res) {
                                *a = s_val.clone();
                            }
                        }
                    }
                }
                Consumer::Ret(rb) => {
                    f.blocks[rb].term = Terminator::Ret(Some(s_val.clone()));
                }
            }
            f.blocks[bi].insts.drain(ii..ii + 2);
            folded += 1;
        }
    }
    debug_assert!(
        rsti_ir::verify_module(m).is_ok(),
        "resign folding broke the module: {:?}",
        rsti_ir::verify_module(m).err()
    );
    folded
}

/// Where a foldable pair's authenticated value goes.
enum Consumer {
    /// All uses are arguments of the direct call at (block, index).
    CallArgs(usize, usize),
    /// The single use is the `Ret` operand of the block.
    Ret(usize),
}

/// Finds the unique internal consumer of `a_res`, if its every use is (a)
/// arguments of one direct call to a defined callee, or (b) the operand of
/// one `Ret` in a non-entry function. Returns `None` when uses are spread
/// across instructions, feed an external/indirect boundary, or include a
/// `loc` (modifier metadata must keep its operand).
fn find_internal_consumer(
    f: &rsti_ir::Function,
    a_res: ValueId,
    use_count: &HashMap<ValueId, usize>,
    externals: &[bool],
    is_entry: bool,
) -> Option<Consumer> {
    let total = use_count.get(&a_res).copied().unwrap_or(0);
    if total == 0 {
        return None; // cast-model pair: result deliberately unused
    }
    for (bi, blk) in f.blocks.iter().enumerate() {
        for (ii, node) in blk.insts.iter().enumerate() {
            let uses_here = node
                .inst
                .operands()
                .iter()
                .filter(|op| matches!(op, Operand::Value(v) if *v == a_res))
                .count();
            let loc_use = matches!(
                &node.inst,
                Inst::PacSign { loc: Some(Operand::Value(v)), .. }
                | Inst::PacAuth { loc: Some(Operand::Value(v)), .. } if *v == a_res
            );
            if uses_here == 0 && !loc_use {
                continue;
            }
            if loc_use {
                return None;
            }
            return match &node.inst {
                Inst::Call { callee, .. }
                    if !externals[callee.0 as usize] && uses_here == total =>
                {
                    Some(Consumer::CallArgs(bi, ii))
                }
                _ => None,
            };
        }
        if matches!(&blk.term, Terminator::Ret(Some(Operand::Value(v))) if *v == a_res) {
            return (!is_entry && total == 1).then_some(Consumer::Ret(bi));
        }
    }
    None
}

/// Size-budgeted inlining of small non-recursive callees, run *after*
/// instrumentation (the paper's LTO phase inlines the runtime library into
/// instrumented code the same way), through the shared inliner loop
/// (`inline_calls` in [`crate::optimize`]) and its frame-safety gate.
///
/// On top of that gate, this inliner has a **module gate**: no recursive
/// SCC and no indirect call anywhere. Inlining grows the caller's frame;
/// with recursion (or cycles hidden behind indirect calls) the peak stack
/// depth is input-dependent, and a grown frame could move a deep run's
/// `StackOverflow` point. With an acyclic fully-static call graph the peak
/// stack is statically bounded and far from the limit.
///
/// Returns the number of call sites inlined.
pub fn inline_small_functions(m: &mut Module, budget: usize) -> usize {
    let cg = CallGraph::new(m);
    if cg.scc_recursive.iter().any(|&r| r) || cg.has_indirect.iter().any(|&h| h) {
        return 0;
    }
    crate::optimize::inline_calls(m, |_| true, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::instrument;
    use crate::optimize::{optimize_module, OptLevel};
    use crate::sti::Mechanism;
    use rsti_frontend::compile;

    fn count_insts(m: &Module, pred: fn(&Inst) -> bool) -> usize {
        m.funcs.iter().flat_map(|f| f.insts()).filter(|n| pred(&n.inst)).count()
    }

    fn auths(m: &Module) -> usize {
        count_insts(m, |i| matches!(i, Inst::PacAuth { .. }))
    }

    #[test]
    fn summaries_classify_writers_frees_and_purity() {
        let src = r#"
            int g;
            int h;
            void write_g() { g = 1; }
            long pure_add(long x) { return x + x; }
            void write_through(int* p) { *p = 1; }
            void free_it(int* p) { free(p); }
            void calls_writer() { write_g(); }
            int main() {
                int* p = (int*) malloc(4);
                write_g();
                write_through(p);
                free_it((int*) malloc(4));
                calls_writer();
                return (int) pure_add((long) g + (long) h);
            }
        "#;
        let m = compile(src, "t").unwrap();
        let a = IpoAnalysis::build(&m);
        let by_name = |n: &str| {
            &a.summaries[m.func_by_name(n).unwrap().0 as usize]
        };
        let wg = by_name("write_g");
        assert_eq!(wg.writes_globals.len(), 1, "{wg:?}");
        assert!(!wg.writes_unknown && !wg.frees, "{wg:?}");
        let pure = by_name("pure_add");
        assert_eq!(pure, &FuncSummary::default(), "param spill is frame-local");
        assert!(by_name("write_through").writes_unknown);
        assert!(by_name("free_it").frees);
        // Transitive: the wrapper inherits the writer's global set.
        assert_eq!(by_name("calls_writer"), wg);
        // main: unions everything.
        assert!(by_name("main").frees && by_name("main").writes_unknown);
        // write_g and pure_add call sites refine; write_through/free_it don't.
        assert!(a.refined_call_sites >= 3, "{}", a.refined_call_sites);
    }

    #[test]
    fn recursive_component_unions_member_effects() {
        // Self-recursion: the intra-component call is skipped during the
        // local scan and resolved by the component union; the wrapper then
        // inherits the final summary transitively.
        let src = r#"
            int g;
            long down(long n) { g = 1; if (n > 0) { return down(n - 1) + 1; } return 0; }
            void wrap(long n) { down(n); }
            int main() { wrap(4); return g; }
        "#;
        let m = compile(src, "t").unwrap();
        let cg = CallGraph::new(&m);
        assert!(cg.is_recursive(m.func_by_name("down").unwrap()));
        let a = IpoAnalysis::build(&m);
        let down = &a.summaries[m.func_by_name("down").unwrap().0 as usize];
        let wrap = &a.summaries[m.func_by_name("wrap").unwrap().0 as usize];
        assert_eq!(down, wrap, "wrapper inherits the cycle's summary");
        assert_eq!(down.writes_globals.len(), 1);
        assert!(!down.writes_unknown && !down.frees);
    }

    #[test]
    fn summary_kill_lets_global_facts_survive_pure_calls() {
        // `burn` is recursive, so the inliner stands down and the call
        // stays — the elision across it can only come from the summary
        // (its empty effect set) refining the call kill. The global slot
        // is stored on both arms, so mem2reg leaves it alone, and the
        // re-auth sits at a join, out of block-local reach.
        let src = r#"
            int* gp;
            int sink;
            long burn(long n) { if (n <= 0) { return 0; } return burn(n - 1) + 1; }
            int main() {
                gp = (int*) malloc(4);
                if (sink > 0) { gp = (int*) malloc(8); }
                int a = *gp;
                if (sink > 1) { sink = (int) burn(3); }
                return a + *gp;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let mut cfg = instrument(&m, Mechanism::Stwc);
        let s_cfg = optimize_module(&mut cfg.module, OptLevel::Cfg);
        let mut ipo = instrument(&m, Mechanism::Stwc);
        let s_ipo = optimize_module(&mut ipo.module, OptLevel::Ipo);
        assert_eq!(s_ipo.inlined, 0, "recursion must disable the inliner");
        assert!(s_ipo.refined >= 1, "{s_ipo:?}");
        assert!(
            s_ipo.elided_ipo > 0,
            "summary kill must unlock the join re-auth: {s_ipo:?}"
        );
        assert!(auths(&ipo.module) < auths(&cfg.module), "{s_cfg:?} {s_ipo:?}");
        rsti_ir::verify_module(&ipo.module).unwrap();
    }

    #[test]
    fn folds_internal_boundary_resign_roundtrips() {
        // STL re-signs pointer arguments at every direct call; with the
        // callee defined in-module, the adjacent sign→auth is an identity.
        let src = r#"
            void poke(int* p) { *p = 1; }
            int main() {
                int* p = (int*) malloc(4);
                poke(p);
                return *p;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stl);
        let (signs0, auths0) = (
            count_insts(&p.module, |i| matches!(i, Inst::PacSign { .. })),
            auths(&p.module),
        );
        let folded = fold_boundary_resigns(&mut p.module);
        assert!(folded > 0, "STL arg re-sign must fold");
        assert_eq!(
            count_insts(&p.module, |i| matches!(i, Inst::PacSign { .. })),
            signs0 - folded
        );
        assert_eq!(auths(&p.module), auths0 - folded);
        rsti_ir::verify_module(&p.module).unwrap();
    }

    #[test]
    fn external_boundaries_keep_their_resigns() {
        // `print_int` is external: the boundary partner is outside the
        // signing domain, so nothing at that call may fold.
        let src = r#"
            int main() {
                int* p = (int*) malloc(4);
                *p = 7;
                print_int((long) *p);
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stl);
        let before = auths(&p.module);
        let _ = fold_boundary_resigns(&mut p.module);
        // Folding may fire elsewhere, but the external call's strip path
        // stays intact and the module stays well-formed.
        assert!(auths(&p.module) <= before);
        rsti_ir::verify_module(&p.module).unwrap();
    }

    #[test]
    fn ipo_inliner_splices_small_defined_callees() {
        let src = r#"
            long square(long x) { return x * x; }
            int main() {
                long acc = 0;
                for (int i = 0; i < 4; i = i + 1) { acc = acc + square(i); }
                return (int) acc;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stwc);
        let n = inline_small_functions(&mut p.module, IPO_INLINE_BUDGET);
        assert!(n >= 1, "square must inline");
        let main = p.module.func_by_name("main").unwrap();
        assert!(
            p.module.func(main).insts().all(|nd| !matches!(nd.inst, Inst::Call { .. })),
            "no direct calls left in main"
        );
        rsti_ir::verify_module(&p.module).unwrap();
    }

    #[test]
    fn ipo_inliner_stands_down_on_recursion() {
        let src = r#"
            long fact(long n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
            int main() { return (int) fact(5); }
        "#;
        let m = compile(src, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stwc);
        assert_eq!(inline_small_functions(&mut p.module, IPO_INLINE_BUDGET), 0);
    }

    #[test]
    fn ipo_inliner_rejects_conditionally_initialized_locals() {
        // `x` is stored on only one arm; a fresh callee frame reads zero
        // on the other, but an inlined re-execution would read the last
        // iteration's value. The init-before-use gate must reject it.
        let src = r#"
            int g;
            long risky() { long x; if (g > 0) { x = 1; } return x; }
            int main() {
                long acc = 0;
                for (int i = 0; i < 3; i = i + 1) { acc = acc + risky(); }
                return (int) acc;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stwc);
        assert_eq!(inline_small_functions(&mut p.module, IPO_INLINE_BUDGET), 0);
    }

    #[test]
    fn store_forwarding_elides_the_reload_auth() {
        // `gp = p` stores a freshly signed pointer; `return *gp` reloads
        // it in a dominated block. The keys differ (p's class vs gp's
        // class), so no plain auth fact covers the reload — only the
        // sign→store forwarding in the ipo dataflow pass can elide it.
        let src = r#"
            int sink;
            int* gp;
            int main() {
                int* p = (int*) malloc(4);
                gp = p;
                if (sink > 0) { sink = 1; }
                return *gp;
            }
        "#;
        let m = compile(src, "t").unwrap();
        for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
            let mut cfg = instrument(&m, mech);
            optimize_module(&mut cfg.module, OptLevel::Cfg);
            let mut ipo = instrument(&m, mech);
            let s = optimize_module(&mut ipo.module, OptLevel::Ipo);
            assert!(
                s.elided_ipo > 0,
                "{mech:?}: forwarded store must elide the reload auth: {s:?}"
            );
            assert!(auths(&ipo.module) < auths(&cfg.module), "{mech:?}");
            rsti_ir::verify_module(&ipo.module).unwrap();
        }
    }

    /// The check-site id stability contract under `--opt ipo`: site ids
    /// are assigned by `(function, block, instruction)` scan order over
    /// the *final* module, so two runs of the identical pipeline produce
    /// the identical table — dense ids, same labels, same lines — and the
    /// spliced copies of an inlined callee's checks are attributed under
    /// the caller while retaining the callee's source-line provenance.
    #[test]
    fn check_site_ids_stable_under_ipo_inlining() {
        let src = "\nlong deref(long* p) { return *p; }\nint main() {\n    long x = 7;\n    long acc = 0;\n    for (int i = 0; i < 3; i = i + 1) { acc = acc + deref(&x); }\n    return (int) acc;\n}\n";
        for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
            let build = || {
                let m = compile(src, "t").unwrap();
                let mut p = instrument(&m, mech);
                let s = optimize_module(&mut p.module, OptLevel::Ipo);
                (s, p.module)
            };
            let (s1, m1) = build();
            let (s2, m2) = build();
            assert_eq!(s1, s2, "{mech:?}: pipeline must be deterministic");
            let (t1, t2) = (crate::sites::check_sites(&m1), crate::sites::check_sites(&m2));
            assert_eq!(t1, t2, "{mech:?}: site tables must be identical");
            for (i, site) in t1.iter().enumerate() {
                assert_eq!(site.id as usize, i, "{mech:?}: ids must stay dense");
            }
            if s1.inlined > 0 {
                // `*p` sits on source line 2; after inlining, a check with
                // that provenance must live under main.
                assert!(
                    t1.iter().any(|s| s.func_name == "main" && s.line == 2),
                    "{mech:?}: inlined check lost its callee line: {:?}",
                    t1.iter()
                        .map(|s| (s.func_name.clone(), s.line))
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn ipo_level_total_never_below_cfg() {
        // On every workload-shaped program the ipo pipeline must be at
        // least as strong as cfg, statically.
        let src = r#"
            int g;
            long helper(long x) { return x + 1; }
            int main() {
                long acc = 0;
                for (int i = 0; i < 8; i = i + 1) { acc = helper(acc); }
                g = (int) acc;
                return g;
            }
        "#;
        let m = compile(src, "t").unwrap();
        for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl, Mechanism::Parts] {
            let mut cfg = instrument(&m, mech);
            optimize_module(&mut cfg.module, OptLevel::Cfg);
            let mut ipo = instrument(&m, mech);
            optimize_module(&mut ipo.module, OptLevel::Ipo);
            assert!(auths(&ipo.module) <= auths(&cfg.module), "{mech:?}");
            rsti_ir::verify_module(&ipo.module).unwrap();
        }
    }
}
