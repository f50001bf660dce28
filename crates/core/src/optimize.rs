//! The check optimizer — the optimization story behind the paper's
//! numbers, made explicit.
//!
//! The paper credits its low overhead to the compiler being allowed to
//! optimize the PA instrumentation: "The LLVM pointer authentication
//! intrinsics allow authentication to happen without spilling to memory,
//! due to them being optimized in the compiler ... the authenticated
//! address is always in a register" (§4.7.2), and the PARTS comparison
//! attributes the 19.5%-vs-1.54% gap to exactly this (§6.3.2).
//!
//! Our MiniC lowering is -O0-style (every local in a slot), so the same
//! pointer slot is often loaded — and re-authenticated — several times.
//! One [`OptLevel`]-driven pipeline removes the provably redundant
//! re-checks. Each level runs the elision engine exactly once per function
//! (see `elide_redundant_auths`): one block walk over "available
//! authentications" (a `(slot, modifier, key)` fact per adjacent load+auth
//! pair) and one bitset fixpoint over the blocks' summaries, parameterized
//! by an `Elision` value that picks the scope, the kill rule, and the fact
//! sources. So every elided site is removed by exactly one run, and the
//! level's count is that run's. No stage rescans a function per candidate
//! (DESIGN.md §6, "The O2 model's cost", gives each stage's cost).
//!
//! * [`OptLevel::BlockLocal`] — single-store slot promotion (mem2reg),
//!   then the block-scoped run: if slot `P` was loaded and authenticated
//!   under modifier `M`, a later identical load+auth pair in the same block
//!   reuses the earlier authenticated value, as long as nothing in between
//!   could have changed memory (any store, call, free or malloc).
//! * [`OptLevel::Cfg`] — promotion, then the CFG-aware stages built on
//!   `rsti-ir`'s dominator tree and loop forest: (1) **loop-invariant auth
//!   hoisting** — a header-resident load+auth pair of a loop-invariant slot
//!   the loop never writes moves to the loop preheader, so a hot loop pays
//!   one check per entry instead of one per iteration (the header runs at
//!   least once whenever the preheader does, so behaviour — traps included
//!   — is preserved even for zero-trip loops); (2) **dominator-based
//!   elision**, the level's one run — the facts propagated as a forward
//!   dataflow (meet = intersection over predecessors, reuse gated on the
//!   defining block dominating the use) with *refined* kill-sets: a store
//!   through an alloca's own address kills only that slot, and
//!   calls/unknown stores cannot touch a slot whose address never escaped.
//!   It subsumes the block-scoped run, whose facts are the ones generated
//!   in the same block; (3) **precomputed PAC modifiers** — an STL
//!   location-mix (`M ^ &p`, Fig. 5c) whose location is a global folds to
//!   a plain modifier at optimize time, because the loader's global layout
//!   is deterministic ([`rsti_ir::Module::global_addresses`]), letting the
//!   VM skip per-execution modifier derivation.
//! * [`OptLevel::Ipo`] — first folds internal-boundary re-signs and inlines
//!   small callees ([`crate::ipo`]), then promotes and hoists as `cfg`
//!   does, and its one elision run is the cfg dataflow with direct-call
//!   kills refined by the callee summaries plus sign→store forwarding. A
//!   call to a callee that frees kills what any call kills at `cfg`: a
//!   callee cannot reach a caller's non-escaped slot.
//!
//! Both inliners — [`inline_leaf_functions`] before instrumentation and
//! [`crate::ipo::inline_small_functions`] after it — share one loop,
//! `inline_calls`, with one frame-safety gate (`callee_inlinable`) and
//! one caller-growth cap; they differ only in which callees they admit.
//!
//! Like keeping authenticated pointers in registers on real hardware,
//! elision and hoisting trade a *narrower re-check window* for speed:
//! corruption that lands between the first check and an elided one goes
//! unnoticed until the value is next reloaded. That is precisely the
//! paper's register-residency semantics — registers (and therefore the
//! longer-lived authenticated values this pass creates) are outside the
//! §3 threat model, which grants the attacker arbitrary *memory* writes
//! only. Program outputs stay bit-identical across all levels for every
//! mechanism; `verify_module` holds after every stage boundary.

use rsti_ir::{
    BasicBlock, BlockId, Cfg, DomTree, Inst, InstNode, LoopForest, Module, Operand, PacKey,
    Terminator, TypeId, ValueId,
};

/// Fact key for a slot: the address operand must be *syntactically
/// identical* (same value id or same global) — a conservative alias-free
/// guarantee.
#[derive(PartialEq, Eq, Clone, Copy)]
enum SlotKey {
    Value(ValueId),
    Global(u32),
}

fn slot_key(op: &Operand) -> Option<SlotKey> {
    match op {
        Operand::Value(v) => Some(SlotKey::Value(*v)),
        Operand::GlobalAddr(g, _) => Some(SlotKey::Global(g.0)),
        _ => None,
    }
}

/// "No entry" in the dense `u32` index tables below.
const NIL: u32 = u32::MAX;

/// Register promotion of single-store pointer slots — the reproduction's
/// mem2reg. A slot qualifies when it is an entry-block `alloca` of pointer
/// type whose address is used *only* as the direct target of exactly one
/// entry-block store (the param spill / initializer) and of loads. The
/// pointer is then loaded-and-authenticated once, right after the store,
/// and every later load+auth pair becomes a register copy — exactly the
/// "authenticated address is always in a register" behaviour the paper's
/// O2 pipeline exhibits (§4.7.2).
///
/// Returns the number of load(+auth) sites promoted to copies.
pub fn promote_single_store_slots(m: &mut Module) -> usize {
    promote_with(m, &mut Promote::default())
}

/// [`promote_single_store_slots`] with the module's scratch.
fn promote_with(m: &mut Module, p: &mut Promote) -> usize {
    let mut promoted = 0;
    let types = &m.types;
    for f in &mut m.funcs {
        if f.is_external || f.blocks.is_empty() {
            continue;
        }
        promoted += promote_in_function(types, f, p);
    }
    promoted
}

/// [`promote_in_function`]'s tables, kept between functions.
#[derive(Default)]
struct Promote {
    usage: Vec<Usage>,
    /// Every load through a value and every auth of a value, as (value,
    /// block, index), in scan order.
    loads: Vec<(ValueId, u32, u32)>,
    auths: Vec<(ValueId, u32, u32)>,
    order: Vec<(ValueId, u32)>,
    cand: Vec<u32>,
    owner: Vec<u32>,
    /// Each candidate's loads and the auths of their results, as (block,
    /// index), one run per candidate starting at its `*_at` entry.
    slot_loads: Vec<(u32, u32)>,
    loads_at: Vec<u32>,
    slot_auths: Vec<(u32, u32)>,
    auths_at: Vec<u32>,
    in_results: Vec<bool>,
    load_results: Vec<ValueId>,
    inserts: Vec<(usize, InstNode, Option<InstNode>)>,
    entry: Vec<InstNode>,
}

/// Groups `items` (candidate, block, index), listed in scan order, into one
/// run per candidate in `out`, keeping scan order within a run; `at[c]` is
/// where candidate `c`'s run starts (`at` has `n + 1` entries).
fn group_by_candidate(
    items: impl Iterator<Item = (u32, u32, u32)> + Clone,
    n: usize,
    at: &mut Vec<u32>,
    out: &mut Vec<(u32, u32)>,
) {
    refill(at, n + 1, 0);
    for (c, _, _) in items.clone() {
        at[c as usize + 1] += 1;
    }
    for c in 0..n {
        at[c + 1] += at[c];
    }
    refill(out, at[n] as usize, (0, 0));
    // Fill with the run starts as cursors, then shift them back.
    for (c, b, i) in items {
        out[at[c as usize] as usize] = (b, i);
        at[c as usize] += 1;
    }
    for c in (1..=n).rev() {
        at[c] = at[c - 1];
    }
    at[0] = 0;
}

/// One slot's uses, from the census walk of [`promote_in_function`].
#[derive(Clone, Copy, Default)]
struct Usage {
    /// Stores through the slot, and the position of the first one.
    stores: u32,
    store_at: (u32, u32),
    loads: u32,
    /// Used as anything but a load or store address.
    other: bool,
    in_entry_alloca: bool,
    /// An entry-block load precedes every store.
    load_before_store: bool,
}

/// `v`'s entry in a dense per-value table, growing the table for ids past
/// the function's value table (never produced by the frontend).
fn dense<T: Clone + Default>(table: &mut Vec<T>, v: ValueId) -> &mut T {
    let i = v.0 as usize;
    if i >= table.len() {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

/// One census walk, then one rewrite per promoted slot over only its own
/// loads and their auths, then one rebuild of the entry block with every
/// canonical load(+auth) inserted.
fn promote_in_function(
    types: &rsti_ir::TypeTable,
    f: &mut rsti_ir::Function,
    p: &mut Promote,
) -> usize {
    let Promote {
        usage,
        loads,
        auths,
        order,
        cand,
        owner,
        slot_loads,
        loads_at,
        slot_auths,
        auths_at,
        in_results,
        load_results,
        inserts,
        entry,
    } = p;
    // 1. Usage census over the original body. Every load through a value
    // and every auth of a value is listed in scan order for step 3.
    refill(usage, f.value_types.len(), Usage::default());
    loads.clear();
    auths.clear();
    for (bi, blk) in f.blocks.iter().enumerate() {
        for (ii, node) in blk.insts.iter().enumerate() {
            let at = (bi as u32, ii as u32);
            match &node.inst {
                Inst::Alloca { result, .. } => dense(usage, *result).in_entry_alloca = bi == 0,
                Inst::Store { value, ptr } => {
                    if let Operand::Value(v) = ptr {
                        let u = dense(usage, *v);
                        if u.stores == 0 {
                            u.store_at = at;
                        }
                        u.stores += 1;
                    }
                    if let Operand::Value(v) = value {
                        dense(usage, *v).other = true;
                    }
                }
                Inst::Load { ptr, .. } => {
                    if let Operand::Value(v) = ptr {
                        let u = dense(usage, *v);
                        u.loads += 1;
                        u.load_before_store |= bi == 0 && u.stores == 0;
                        loads.push((*v, at.0, at.1));
                    }
                }
                other => {
                    if let Inst::PacAuth {
                        value: Operand::Value(v),
                        ..
                    } = other
                    {
                        auths.push((*v, at.0, at.1));
                    }
                    other.for_each_operand(|op| {
                        if let Operand::Value(v) = op {
                            dense(usage, *v).other = true;
                        }
                    });
                }
            }
        }
        // Terminator operands count as "other" uses.
        if let Some(Operand::Value(v)) = blk.term.operand() {
            dense(usage, *v).other = true;
        }
    }

    // 2. Candidates, with every entry-block load after the store, in
    // descending store order: the order the fresh value ids are drawn in.
    order.clear();
    order.extend(usage
        .iter()
        .enumerate()
        .filter(|(_, u)| {
            u.in_entry_alloca
                && !u.other
                && u.stores == 1
                && u.store_at.0 == 0
                && u.loads >= 2
                && !u.load_before_store
        })
        .map(|(v, u)| (ValueId(v as u32), u.store_at.1)));
    if order.is_empty() {
        return 0;
    }
    order.sort_by_key(|e| std::cmp::Reverse(e.1));

    // Each candidate's loads, and the auths of their results, in scan order.
    refill(cand, usage.len(), NIL);
    for (ci, &(v, _)) in order.iter().enumerate() {
        cand[v.0 as usize] = ci as u32;
    }
    refill(owner, f.value_types.len(), NIL);
    let cand_loads = (loads.iter())
        .map(|&(v, bi, ii)| (cand[v.0 as usize], bi, ii))
        .filter(|&(ci, _, _)| ci != NIL);
    for (ci, bi, ii) in cand_loads.clone() {
        if let Inst::Load { result, .. } = &f.blocks[bi as usize].insts[ii as usize].inst {
            *dense(owner, *result) = ci;
        }
    }
    group_by_candidate(cand_loads, order.len(), loads_at, slot_loads);
    let cand_auths = (auths.iter())
        .filter_map(|&(v, bi, ii)| Some((*owner.get(v.0 as usize).filter(|&&ci| ci != NIL)?, bi, ii)));
    group_by_candidate(cand_auths, order.len(), auths_at, slot_auths);
    let run = |at: &[u32], ci: usize| at[ci] as usize..at[ci + 1] as usize;

    // 3. Rewrite, slot by slot. The modifier/key come from the auth after
    // the slot's last load (none after a pp-auth: those tags must be
    // revalidated per load), and every load(+auth) of the slot becomes a
    // copy of the canonical value. Earlier slots' rewrites are visible to
    // later slots' scans; the canonical pairs go in at the end, after
    // their stores, which no load follows directly.
    let mut promoted = 0usize;
    refill(in_results, f.value_types.len(), false);
    inserts.clear();
    for (ci, &(slot, store_idx)) in order.iter().enumerate() {
        let mut load_ty = None;
        let mut auth_template = None;
        load_results.clear();
        for &(bi, ii) in &slot_loads[run(loads_at, ci)] {
            let insts = &f.blocks[bi as usize].insts;
            let Inst::Load { result, ty, .. } = &insts[ii as usize].inst else {
                unreachable!("listed loads of a slot stay loads until the slot is rewritten")
            };
            load_ty = Some(*ty);
            load_results.push(*result);
            match insts.get(ii as usize + 1).map(|n| &n.inst) {
                Some(Inst::PacAuth {
                    key,
                    modifier,
                    loc,
                    site,
                    ..
                }) => {
                    auth_template = Some((*key, *modifier, loc.clone(), *site));
                }
                Some(Inst::PpAuth { .. }) => {
                    auth_template = None;
                    load_results.clear();
                }
                _ => {}
            }
        }
        let Some(load_ty) = load_ty else { continue };
        if load_results.is_empty() {
            continue;
        }

        // The canonical load (+ auth), inserted after the store below.
        let loc_of_store = f.blocks[0].insts[store_idx as usize].loc;
        let raw = ValueId(f.value_types.len() as u32);
        f.value_types.push(load_ty);
        let load = Inst::Load {
            result: raw,
            ptr: slot.into(),
            ty: load_ty,
        };
        let load = InstNode {
            inst: load,
            loc: loc_of_store,
        };
        let (canonical, auth) = match auth_template {
            Some((key, modifier, loc, site)) => {
                let authed = ValueId(f.value_types.len() as u32);
                f.value_types.push(load_ty);
                let inst = Inst::PacAuth {
                    result: authed,
                    value: raw.into(),
                    key,
                    modifier,
                    loc,
                    site,
                };
                (
                    authed,
                    Some(InstNode {
                        inst,
                        loc: loc_of_store,
                    }),
                )
            }
            None => (raw, None),
        };
        inserts.push((store_idx as usize, load, auth));

        // Convert all original load(+auth) pairs of this slot to copies.
        // Pointers copy via `bitcast`, scalars via `convert` — both are
        // 1-cycle register moves in the VM; the distinction only keeps the
        // verifier's type rules happy.
        let is_ptr = types.is_ptr(load_ty);
        let copy = |result: ValueId| {
            if is_ptr {
                Inst::BitCast { result, value: canonical.into(), to: load_ty }
            } else {
                Inst::Convert { result, value: canonical.into(), to: load_ty }
            }
        };
        for &r in load_results.iter() {
            *dense(in_results, r) = true;
        }
        for &(bi, ii) in &slot_loads[run(loads_at, ci)] {
            let node = &mut f.blocks[bi as usize].insts[ii as usize];
            if let Some(result) = node.inst.result() {
                node.inst = copy(result);
                promoted += 1;
            }
        }
        for &(bi, ii) in &slot_auths[run(auths_at, ci)] {
            let node = &mut f.blocks[bi as usize].insts[ii as usize];
            if let Inst::PacAuth {
                result,
                value: Operand::Value(rv),
                ..
            } = &node.inst
            {
                if in_results.get(rv.0 as usize).copied().unwrap_or(false) {
                    node.inst = copy(*result);
                }
            }
        }
    }

    // 4. One rebuild of the entry block with every canonical pair after
    // its store.
    if !inserts.is_empty() {
        inserts.sort_unstable_by_key(|e| e.0);
        // The entry block is rebuilt in the scratch vector, which then
        // trades places with it.
        entry.clear();
        let mut next = inserts.drain(..).peekable();
        for (ii, node) in f.blocks[0].insts.drain(..).enumerate() {
            entry.push(node);
            if let Some((_, load, auth)) = next.next_if(|e| e.0 == ii) {
                entry.push(load);
                entry.extend(auth);
            }
        }
        std::mem::swap(&mut f.blocks[0].insts, entry);
    }
    promoted
}

// ---------------------------------------------------------------------------
// The elision engine (every level) and the CFG-aware stages
// ---------------------------------------------------------------------------

/// Per-function alias census: which values are allocas, which of those
/// never escape, and where every value is defined. Every table is dense,
/// indexed by value id.
///
/// An alloca's address *escapes* the moment it is used as anything other
/// than the direct pointer of a `load`/`store` — stored somewhere, passed
/// to a call, offset by a GEP, bitcast, compared, returned. A PAC
/// instruction's `loc` operand is the one exception: STL mixes the address
/// into the modifier as metadata, which creates no capability to reach the
/// slot. The payoff: no call, free, or store through an unknown pointer
/// can possibly write a non-escaped slot, so available-auth facts about it
/// survive those kills.
#[derive(Default)]
struct AliasCensus {
    alloca: Vec<bool>,
    non_escaped: Vec<bool>,
    /// Defining block per value; `None` for params and never-defined ids
    /// (both behave as "defined at entry").
    def_block: Vec<Option<BlockId>>,
}

impl AliasCensus {
    fn is_alloca(&self, v: ValueId) -> bool {
        self.alloca.get(v.0 as usize).copied().unwrap_or(false)
    }

    fn is_non_escaped(&self, v: ValueId) -> bool {
        self.non_escaped.get(v.0 as usize).copied().unwrap_or(false)
    }
}

fn alias_census(f: &rsti_ir::Function) -> AliasCensus {
    let mut census = AliasCensus::default();
    census.recompute(f);
    census
}

impl AliasCensus {
    /// Makes this the census of `f`, reusing its tables.
    fn recompute(&mut self, f: &rsti_ir::Function) {
        let n = f.value_types.len();
        let AliasCensus { alloca, non_escaped, def_block } = self;
        for t in [&mut *alloca, &mut *non_escaped] {
            t.clear();
            t.resize(n, false);
        }
        def_block.clear();
        def_block.resize(n, None);
        // `non_escaped` holds "escaped" until the walk is over.
        census_walk(f, alloca, non_escaped, def_block);
        for (e, &a) in non_escaped.iter_mut().zip(alloca.iter()) {
            *e = a && !*e;
        }
    }
}

fn census_walk(
    f: &rsti_ir::Function,
    alloca: &mut [bool],
    escaped: &mut [bool],
    def_block: &mut [Option<BlockId>],
) {
    let mut escape = |op: &Operand| {
        if let Operand::Value(v) = op {
            if let Some(e) = escaped.get_mut(v.0 as usize) {
                *e = true;
            }
        }
    };
    for (bi, blk) in f.blocks.iter().enumerate() {
        for node in &blk.insts {
            if let Some(r) = node.inst.result() {
                def_block[r.0 as usize] = Some(BlockId(bi as u32));
            }
            match &node.inst {
                Inst::Alloca { result, .. } => alloca[result.0 as usize] = true,
                Inst::Load { .. } => {} // ptr use is benign
                Inst::Store { value, .. } => escape(value), // ptr use is benign
                Inst::PacSign { value, .. } | Inst::PacAuth { value, .. } => {
                    escape(value); // loc use is benign (modifier metadata)
                }
                other => other.for_each_operand(&mut escape),
            }
        }
        blk.term.operand().into_iter().for_each(&mut escape);
    }
}

/// Which level's elision run the engine makes: the fact scope, the kill
/// rule, and the fact sources. Loop-invariant hoisting takes the same value
/// for its "the loop never writes the slot" check.
#[derive(Clone, Copy)]
pub(crate) enum Elision<'a> {
    /// Per-block scope: every block starts with nothing available, and any
    /// store, call, free or malloc kills every fact.
    Block,
    /// CFG dataflow with the alias-census kills (see `AliasCensus`).
    Cfg,
    /// [`Elision::Cfg`] with direct-call kills refined by the callee
    /// summaries, plus sign→store forwarding (see `Engine::walk`).
    Ipo(&'a [crate::ipo::FuncSummary]),
}

/// What a memory-writing instruction invalidates. Under the refined alias
/// rules, `SlotKey::Value` slots that are non-escaped allocas are immune to
/// everything except a store through their own address and `free`.
enum Kill<'a> {
    /// No memory written.
    None,
    /// Exactly one slot (store through a non-escaped alloca's address).
    OneSlot(SlotKey),
    /// One slot plus every interior-pointer fact (store through an escaped
    /// alloca's address: GEPs derived from it may alias its storage).
    SlotAndInteriors(SlotKey),
    /// One global plus every interior-pointer fact (interior pointers may
    /// point into the global).
    GlobalAndInteriors(u32),
    /// A summarized call: the named globals die, and so does every
    /// interior-pointer fact (an interior pointer may point into one of
    /// those globals). Every caller *slot* survives, escaped or not: a
    /// callee with `writes_unknown == false` never stores through a
    /// pointer it received or loaded, so it cannot reach any caller
    /// alloca — its only writes land in its own fresh frame and in the
    /// listed globals.
    Globals(&'a std::collections::BTreeSet<u32>),
    /// Everything except non-escaped alloca slots (calls, stores through
    /// unknown pointers).
    AllButNonEscaped,
    /// Everything (`free`: under the MAC-table backend a metadata change,
    /// not just a data write, so no fact survives it; and every memory
    /// effect at [`Elision::Block`]).
    All,
}

fn kill_of<'a>(inst: &Inst, census: &AliasCensus, stage: Elision<'a>) -> Kill<'a> {
    if let Elision::Block = stage {
        return match inst {
            Inst::Store { .. }
            | Inst::Call { .. }
            | Inst::CallIndirect { .. }
            | Inst::Free { .. }
            | Inst::Malloc { .. } => Kill::All,
            _ => Kill::None,
        };
    }
    match inst {
        Inst::Store { ptr, .. } => match slot_key(ptr) {
            Some(k @ SlotKey::Value(v)) if census.is_non_escaped(v) => Kill::OneSlot(k),
            Some(k @ SlotKey::Value(v)) if census.is_alloca(v) => Kill::SlotAndInteriors(k),
            Some(SlotKey::Global(g)) => Kill::GlobalAndInteriors(g),
            _ => Kill::AllButNonEscaped,
        },
        // A direct call with an interprocedural summary kills only what
        // the callee (transitively) can write. A callee that frees kills
        // what any call kills: it may release memory some fact's slot
        // lives in, but it cannot reach a caller's non-escaped slot.
        Inst::Call { callee, .. } => match stage {
            Elision::Ipo(summaries) => {
                let s = &summaries[callee.0 as usize];
                if s.frees || s.writes_unknown {
                    Kill::AllButNonEscaped
                } else if s.writes_globals.is_empty() {
                    Kill::None
                } else {
                    Kill::Globals(&s.writes_globals)
                }
            }
            _ => Kill::AllButNonEscaped,
        },
        Inst::CallIndirect { .. } => Kill::AllButNonEscaped,
        Inst::Free { .. } => Kill::All,
        // Malloc returns fresh, never-before-visible memory: no fact can
        // refer to it yet.
        _ => Kill::None,
    }
}

/// A slot that a fact or a kill has named, with its kill class and clock.
struct Slot {
    /// A non-escaped alloca: immune to every kill but a store through its
    /// own address and `free`.
    pinned: bool,
    /// An interior pointer: a value that is not an alloca.
    interior: bool,
    /// Clock reading of the slot's last own kill (0: never).
    killed_at: u32,
    /// Its first fact key (a chain through `FactKey::next`).
    keys: u32,
}

/// An interned `(slot, modifier, key)` — at most one fact per such key is
/// available at a time — with its fact ids and its state in the walk under
/// way.
struct FactKey {
    slot: u32,
    modifier: u64,
    key: PacKey,
    /// The slot's next key.
    next: u32,
    /// The key's fact ids, `facts.0..facts.1`: one per block that
    /// generates the key.
    facts: (u32, u32),
    /// Clock reading of the walked block's last generation of the key (0 or
    /// before the block: none), the value it made available, and whether the
    /// key had not been killed yet in the block at that point.
    gen_at: u32,
    gen_value: ValueId,
    gen_if_absent: bool,
}

/// What [`Engine::walk`] found available for a key.
enum Avail {
    /// Available: the authenticated value and its defining block.
    Here(ValueId, BlockId),
    Absent,
    /// Available exactly when the block's entry has the key (a summary walk,
    /// which does not know the entry).
    IfEntryHas,
}

/// How a walk rewrites: the function's value types (an elided auth becomes
/// a register copy typed as its result) and, for CFG-scoped facts, the
/// dominator tree that proves the authenticated register live.
struct Rewrite<'r> {
    types: &'r [TypeId],
    dom: Option<&'r DomTree>,
}

/// What a block does to the available facts: the kills and the facts it
/// generates, summarized by one walk.
#[derive(Default)]
struct BlockSummary {
    /// `KILLS_*` bits of the slot classes it kills wholesale.
    classes: u8,
    /// Range of its own-slot kills in `Summaries::killed`.
    killed: (u32, u32),
    /// Range of its generated facts in `Summaries::gens`.
    gens: (u32, u32),
    /// Whether its walk found a pair's fact generated earlier in the block
    /// (so it elides something), and the range in `Summaries::asked` of
    /// the keys whose pairs found them only if the entry has them. A block
    /// with neither elides nothing, and its rewrite walk is skipped.
    hit: bool,
    asked: (u32, u32),
}

/// Every block's summary, plus the flat lists they index.
#[derive(Default)]
struct Summaries {
    blocks: Vec<BlockSummary>,
    killed: Vec<u32>,
    /// `(fact key, value, generated only if the block's entry lacks the
    /// key)`; the fact id is assigned once every block is summarized.
    gens: Vec<(u32, ValueId, bool)>,
    gen_fact: Vec<u32>,
    asked: Vec<u32>,
}

impl Summaries {
    fn clear(&mut self) {
        self.blocks.clear();
        self.killed.clear();
        self.gens.clear();
        self.gen_fact.clear();
        self.asked.clear();
    }
}

/// The dataflow's tables for one function (see [`elide_in_function`]),
/// kept between functions.
#[derive(Default)]
struct Flow {
    sums: Summaries,
    slot_facts: Vec<(u32, u32)>,
    cursor: Vec<u32>,
    unpinned: Vec<u64>,
    interiors: Vec<u64>,
    keep: Vec<u64>,
    gen: Vec<u64>,
    out: Vec<u64>,
    computed: Vec<bool>,
    entry: Vec<u64>,
    next: Vec<u64>,
}

/// Everything the per-function stages build and drop — one CFG, dominator
/// tree, loop forest, alias census, engine table set, dataflow table set
/// and promotion census — kept for a whole module, so the optimizer
/// allocates per module rather than per function or block.
#[derive(Default)]
struct Scratch {
    cfg: Cfg,
    dom: DomTree,
    forest: LoopForest,
    census: AliasCensus,
    eng: EngineTables,
    flow: Flow,
    promote: Promote,
}

/// Resizes `v` to `n` copies of `x`, reusing its allocation.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, x: T) {
    v.clear();
    v.resize(n, x);
}

/// Kill classes a block can kill as a whole.
const KILLS_ALL: u8 = 1;
const KILLS_UNPINNED: u8 = 2;
const KILLS_INTERIORS: u8 = 4;

/// The available-authentications engine for one function.
///
/// Every fact is a `(slot, modifier, key, value, defining block)`; at most
/// one fact per `(slot, modifier, key)` is available at a time, and a kill
/// erases every fact of its slots. Kills are recorded on a clock:
/// each slot, and each of three slot classes (every slot, every slot but
/// the pinned ones, every interior pointer), remembers its last kill, so
/// "was this fact killed since it was generated" is a constant-time
/// question however many kills a block holds.
struct Engine<'a> {
    census: &'a AliasCensus,
    stage: Elision<'a>,
    clock: u32,
    /// Clock reading at the start of the block being walked.
    block_start: u32,
    /// Last kill of every slot, of every unpinned slot, of every interior.
    all_killed_at: u32,
    unpinned_killed_at: u32,
    interiors_killed_at: u32,
    /// Whether a pair in the block being walked found its key generated
    /// earlier in the block.
    block_hit: bool,
    t: EngineTables,
}

/// An [`Engine`]'s tables. [`Engine::new`] takes them and resets them, and
/// the caller takes them back from [`Engine::t`], so one set serves every
/// function and stage of a module.
#[derive(Default)]
struct EngineTables {
    slots: Vec<Slot>,
    /// Slot id per value id and per global id.
    value_slot: Vec<u32>,
    global_slot: Vec<u32>,
    keys: Vec<FactKey>,
    /// Keys generated, and slots first killed, by the block being walked,
    /// and the keys pairs there found only if the entry has them.
    block_gens: Vec<u32>,
    block_kills: Vec<u32>,
    block_asked: Vec<u32>,
    /// At [`Elision::Ipo`], per value id: the sign defining it, as (clock
    /// reading of its block's walk, input, key, modifier).
    signs: Vec<(u32, ValueId, PacKey, u64)>,
    /// Value and defining block per fact id.
    fact_value: Vec<ValueId>,
    fact_block: Vec<BlockId>,
}

impl EngineTables {
    /// Empties every table for a function of `values` value ids.
    fn reset(&mut self, values: usize, ipo: bool) {
        self.slots.clear();
        refill(&mut self.value_slot, values, NIL);
        self.global_slot.clear();
        self.keys.clear();
        self.block_gens.clear();
        self.block_kills.clear();
        self.block_asked.clear();
        self.signs.clear();
        if ipo {
            self.signs.resize(values, (0, ValueId(0), PacKey::Da, 0));
        }
        self.fact_value.clear();
        self.fact_block.clear();
    }
}

impl<'a> Engine<'a> {
    fn new(
        census: &'a AliasCensus,
        stage: Elision<'a>,
        values: usize,
        mut t: EngineTables,
    ) -> Engine<'a> {
        t.reset(values, matches!(stage, Elision::Ipo(_)));
        Engine {
            census,
            stage,
            clock: 0,
            block_start: 0,
            all_killed_at: 0,
            unpinned_killed_at: 0,
            interiors_killed_at: 0,
            block_hit: false,
            t,
        }
    }

    fn slot(&mut self, key: SlotKey) -> u32 {
        let (pinned, interior) = match key {
            SlotKey::Value(v) => (self.census.is_non_escaped(v), !self.census.is_alloca(v)),
            SlotKey::Global(_) => (false, false),
        };
        let (table, i) = match key {
            SlotKey::Value(v) => (&mut self.t.value_slot, v.0 as usize),
            SlotKey::Global(g) => (&mut self.t.global_slot, g as usize),
        };
        if i >= table.len() {
            table.resize(i + 1, NIL);
        }
        if table[i] == NIL {
            table[i] = self.t.slots.len() as u32;
            self.t.slots.push(Slot {
                pinned,
                interior,
                killed_at: 0,
                keys: NIL,
            });
        }
        table[i]
    }

    fn fact_key(&mut self, slot: u32, modifier: u64, key: PacKey) -> u32 {
        let mut k = self.t.slots[slot as usize].keys;
        while k != NIL {
            let fk = &self.t.keys[k as usize];
            if fk.modifier == modifier && fk.key == key {
                return k;
            }
            k = fk.next;
        }
        let id = self.t.keys.len() as u32;
        self.t.keys.push(FactKey {
            slot,
            modifier,
            key,
            next: self.t.slots[slot as usize].keys,
            facts: (0, 0),
            gen_at: 0,
            gen_value: ValueId(0),
            gen_if_absent: false,
        });
        self.t.slots[slot as usize].keys = id;
        id
    }

    /// Whether a kill after clock reading `t` reached `slot`.
    fn killed_since(&self, slot: u32, t: u32) -> bool {
        let s = &self.t.slots[slot as usize];
        self.all_killed_at > t
            || s.killed_at > t
            || (self.unpinned_killed_at > t && !s.pinned)
            || (self.interiors_killed_at > t && s.interior)
    }

    fn kill_slot(&mut self, key: SlotKey) {
        let id = self.slot(key);
        let s = &mut self.t.slots[id as usize];
        if s.killed_at <= self.block_start {
            self.t.block_kills.push(id);
        }
        s.killed_at = self.clock;
    }

    /// Records `inst`'s kill at the current clock reading.
    fn kill(&mut self, inst: &Inst) {
        match kill_of(inst, self.census, self.stage) {
            Kill::None => {}
            Kill::OneSlot(k) => self.kill_slot(k),
            Kill::SlotAndInteriors(k) => {
                self.kill_slot(k);
                self.interiors_killed_at = self.clock;
            }
            Kill::GlobalAndInteriors(g) => {
                self.kill_slot(SlotKey::Global(g));
                self.interiors_killed_at = self.clock;
            }
            Kill::Globals(gs) => {
                for &g in gs {
                    self.kill_slot(SlotKey::Global(g));
                }
                self.interiors_killed_at = self.clock;
            }
            Kill::AllButNonEscaped => self.unpinned_killed_at = self.clock,
            Kill::All => self.all_killed_at = self.clock,
        }
    }

    fn generate(&mut self, k: u32, value: ValueId, if_absent: bool) {
        let fk = &mut self.t.keys[k as usize];
        fk.gen_at = self.clock;
        fk.gen_value = value;
        fk.gen_if_absent = if_absent;
        self.t.block_gens.push(k);
    }

    /// Whether the walked block's generation of `k` is still available.
    fn generated_here(&self, k: u32) -> bool {
        let fk = &self.t.keys[k as usize];
        fk.gen_at > self.block_start && !self.killed_since(fk.slot, fk.gen_at)
    }

    fn available(&self, k: u32, b: BlockId, entry: Option<&[u64]>) -> Avail {
        let fk = &self.t.keys[k as usize];
        if self.generated_here(k) {
            return Avail::Here(fk.gen_value, b);
        }
        if self.killed_since(fk.slot, self.block_start) {
            return Avail::Absent;
        }
        let Some(entry) = entry else {
            return Avail::IfEntryHas;
        };
        match first_in(entry, fk.facts) {
            Some(f) => Avail::Here(self.t.fact_value[f as usize], self.t.fact_block[f as usize]),
            None => Avail::Absent,
        }
    }

    /// One walk over block `b`: adjacent load+auth pairs generate facts,
    /// memory writes kill them per the stage's rule. `entry` is the set of
    /// fact ids available at the block's entry, or `None` for a summary
    /// walk, which leaves its kills and generated keys in `block_kills`
    /// and `block_gens`. With `rewrite` set, an auth whose fact is already
    /// available — defined in this block, or in one that dominates it — is
    /// replaced with a register copy. Returns the number of auths elided.
    ///
    /// A key is generated only when it is absent, and a kill erases it. So
    /// what a block generates for a key is its first fact for the key after
    /// the key's last kill; for a key the block never kills, that fact counts
    /// only when no fact for the key arrives at the entry.
    ///
    /// At [`Elision::Ipo`], facts are *also* seeded by sign→store chains: a
    /// `Store` whose value is the result of a same-block `PacSign` under
    /// `(key, modifier)` records that the slot now holds exactly `sign(v)` —
    /// so a later load+auth of that slot under the same class yields `v` and
    /// can be elided to a copy of the sign's input. This is what makes
    /// call-boundary spill/reload chains (and every `p = q; use *p`
    /// store-then-reload idiom) free: the auth after the reload is the
    /// inverse of the sign before the store. Soundness is the same narrowed
    /// re-check window as every other elision — corruption landing in the
    /// slot between the store and the reload goes unverified until the next
    /// non-elided check — and the kill rules guard everything else: any
    /// intervening write that could alias the slot erases the fact.
    fn walk(
        &mut self,
        blk: &mut BasicBlock,
        b: BlockId,
        entry: Option<&[u64]>,
        rewrite: Option<&Rewrite<'_>>,
    ) -> usize {
        let forward = matches!(self.stage, Elision::Ipo(_));
        self.clock += 1;
        self.block_start = self.clock;
        self.t.block_gens.clear();
        self.t.block_kills.clear();
        self.block_hit = false;
        self.t.block_asked.clear();
        let mut elided = 0;
        for i in 0..blk.insts.len() {
            self.clock += 1;
            // Adjacent load+auth pair? (Instrumentation always emits them
            // adjacent; the MAC-table backend depends on the same adjacency.)
            let pair = match &blk.insts[i].inst {
                Inst::Load { result, ptr, .. } => match blk.insts.get(i + 1).map(|n| &n.inst) {
                    Some(Inst::PacAuth {
                        result: ar,
                        value: Operand::Value(raw),
                        key,
                        modifier,
                        ..
                    }) if raw == result => slot_key(ptr).map(|s| (s, *modifier, *key, *ar)),
                    _ => None,
                },
                _ => None,
            };
            if let Some((slot, modifier, key, auth_result)) = pair {
                let s = self.slot(slot);
                let k = self.fact_key(s, modifier, key);
                match self.available(k, b, entry) {
                    Avail::Here(prev, def_b) => {
                        self.block_hit = true;
                        if let Some(rw) = rewrite {
                            if def_b == b || rw.dom.is_some_and(|d| d.dominates(def_b, b)) {
                                blk.insts[i + 1].inst = Inst::BitCast {
                                    result: auth_result,
                                    value: prev.into(),
                                    to: rw.types[auth_result.0 as usize],
                                };
                                elided += 1;
                            }
                        }
                    }
                    Avail::Absent => self.generate(k, auth_result, false),
                    Avail::IfEntryHas => {
                        self.t.block_asked.push(k);
                        self.generate(k, auth_result, true);
                    }
                }
                continue;
            }
            if forward {
                if let Inst::PacSign {
                    result,
                    value: Operand::Value(v),
                    key,
                    modifier,
                    ..
                } = &blk.insts[i].inst
                {
                    if let Some(e) = self.t.signs.get_mut(result.0 as usize) {
                        *e = (self.block_start, *v, *key, *modifier);
                    }
                }
            }
            self.kill(&blk.insts[i].inst);
            if forward {
                // Seed *after* the store's own kill: the slot now provably
                // holds the freshly signed value. The sign and the future
                // reload's auth share the slot's storage class, so matching
                // (slot, modifier, key) suffices — same argument as the
                // load-pair facts above (slot match ⇒ same STL location).
                if let Inst::Store {
                    value: Operand::Value(sv),
                    ptr,
                } = &blk.insts[i].inst
                {
                    if let (Some(&(at, orig, key, modifier)), Some(slot)) =
                        (self.t.signs.get(sv.0 as usize), slot_key(ptr))
                    {
                        if at == self.block_start {
                            self.clock += 1;
                            let s = self.slot(slot);
                            let k = self.fact_key(s, modifier, key);
                            debug_assert!(self.killed_since(s, self.block_start));
                            self.generate(k, orig, false);
                        }
                    }
                }
            }
        }
        elided
    }

    /// Records the block just walked in `sums`.
    fn summarize(&mut self, sums: &mut Summaries) {
        let mut classes = 0;
        for (at, class) in [
            (self.all_killed_at, KILLS_ALL),
            (self.unpinned_killed_at, KILLS_UNPINNED),
            (self.interiors_killed_at, KILLS_INTERIORS),
        ] {
            if at > self.block_start {
                classes |= class;
            }
        }
        let killed_from = sums.killed.len() as u32;
        sums.killed.extend_from_slice(&self.t.block_kills);
        let killed = (killed_from, sums.killed.len() as u32);
        let start = sums.gens.len() as u32;
        for i in 0..self.t.block_gens.len() {
            let k = self.t.block_gens[i];
            if self.generated_here(k) {
                let fk = &mut self.t.keys[k as usize];
                sums.gens.push((k, fk.gen_value, fk.gen_if_absent));
                fk.gen_at = 0; // listed once
            }
        }
        let gens = (start, sums.gens.len() as u32);
        let asked_from = sums.asked.len() as u32;
        sums.asked.extend_from_slice(&self.t.block_asked);
        let asked = (asked_from, sums.asked.len() as u32);
        sums.blocks.push(BlockSummary {
            classes,
            killed,
            gens,
            hit: self.block_hit,
            asked,
        });
    }

    /// Assigns fact ids, contiguous per key and per slot, to every summarized
    /// generation; returns the bitset word count, and fills each slot's
    /// fact range into `slot_facts` (`cursor` is scratch).
    fn number_facts(
        &mut self,
        sums: &mut Summaries,
        order: &[BlockId],
        slot_facts: &mut Vec<(u32, u32)>,
        cursor: &mut Vec<u32>,
    ) -> usize {
        for &(k, _, _) in &sums.gens {
            self.t.keys[k as usize].facts.1 += 1;
        }
        let mut next = 0u32;
        slot_facts.clear();
        slot_facts.resize(self.t.slots.len(), (0, 0));
        for (s, range) in slot_facts.iter_mut().enumerate() {
            range.0 = next;
            let mut k = self.t.slots[s].keys;
            while k != NIL {
                let fk = &mut self.t.keys[k as usize];
                fk.facts = (next, next + fk.facts.1);
                next = fk.facts.1;
                k = fk.next;
            }
            range.1 = next;
        }
        self.t.fact_value.clear();
        self.t.fact_value.resize(next as usize, ValueId(0));
        self.t.fact_block.clear();
        self.t.fact_block.resize(next as usize, BlockId(0));
        cursor.clear();
        cursor.extend(self.t.keys.iter().map(|fk| fk.facts.0));
        sums.gen_fact.clear();
        for (bs, &b) in sums.blocks.iter().zip(order) {
            for &(k, value, _) in &sums.gens[bs.gens.0 as usize..bs.gens.1 as usize] {
                let f = cursor[k as usize];
                cursor[k as usize] += 1;
                self.t.fact_value[f as usize] = value;
                self.t.fact_block[f as usize] = b;
                sums.gen_fact.push(f);
            }
        }
        (next as usize).div_ceil(64)
    }
}

/// The first member of `set` in `lo..hi`.
fn first_in(set: &[u64], (lo, hi): (u32, u32)) -> Option<u32> {
    (lo..hi).find(|&i| {
        set.get(i as usize / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    })
}

fn set_bits(set: &mut [u64], (lo, hi): (u32, u32), on: bool) {
    for i in lo..hi {
        let (w, m) = (i as usize / 64, 1u64 << (i % 64));
        if on {
            set[w] |= m;
        } else {
            set[w] &= !m;
        }
    }
}

/// The redundant-auth elimination engine, run once per function at the
/// level's `stage`. At [`Elision::Block`] each block is rewritten on its
/// own. Otherwise loop-invariant pairs are hoisted first (see
/// `cfg_stages`), then a forward "available authentications" dataflow runs
/// over the CFG (optimistic iteration to the greatest fixpoint, meet =
/// intersection), then a rewrite pass replaces re-authentications whose
/// fact arrives on every path — and whose definition dominates the use, so
/// the authenticated register is live — with register copies.
///
/// The dataflow runs on block summaries: one walk per block records what
/// it kills and generates, each distinct fact gets a dense id, and the
/// fixpoint iterates on bitsets (meet = AND, change test = word compare)
/// before one rewrite walk per block.
///
/// Returns `(hoisted, elided)`: the pairs moved to preheaders and the
/// auths turned into copies.
fn elide_redundant_auths(m: &mut Module, stage: Elision<'_>, sc: &mut Scratch) -> (usize, usize) {
    let (mut hoisted, mut elided) = (0, 0);
    for f in &mut m.funcs {
        if f.is_external || f.blocks.is_empty() {
            continue;
        }
        if let Elision::Block = stage {
            // The block kill rule never consults the census.
            let census = AliasCensus::default();
            let t = std::mem::take(&mut sc.eng);
            let mut eng = Engine::new(&census, stage, f.value_types.len(), t);
            let rw = Rewrite { types: &f.value_types, dom: None };
            for (bi, blk) in f.blocks.iter_mut().enumerate() {
                elided += eng.walk(blk, BlockId(bi as u32), Some(&[][..]), Some(&rw));
            }
            sc.eng = eng.t;
            continue;
        }
        let (h, e) = cfg_stages(f, sc, stage);
        hoisted += h;
        elided += e;
    }
    (hoisted, elided)
}

/// The CFG-scoped engine over one function, given its CFG, dominator tree
/// and alias census in `sc`.
fn elide_in_function(f: &mut rsti_ir::Function, sc: &mut Scratch, stage: Elision<'_>) -> usize {
    let Scratch { cfg, dom, census, eng: tables, flow, .. } = sc;
    let Flow {
        sums,
        slot_facts,
        cursor,
        unpinned,
        interiors,
        keep,
        gen,
        out,
        computed,
        entry,
        next,
    } = flow;
    let mut eng = Engine::new(census, stage, f.value_types.len(), std::mem::take(tables));

    // 1. One summary walk per reachable block.
    sums.clear();
    for &b in &cfg.rpo {
        eng.walk(&mut f.blocks[b.0 as usize], b, None, None);
        eng.summarize(sums);
    }
    let words = eng.number_facts(sums, &cfg.rpo, slot_facts, cursor);

    // Per block (in RPO position): the facts it keeps, and the ones it
    // generates unconditionally.
    let class_mask = |mask: &mut Vec<u64>, pick: fn(&Slot) -> bool| {
        refill(mask, words, 0);
        for (s, &range) in eng.t.slots.iter().zip(slot_facts.iter()) {
            if pick(s) {
                set_bits(mask, range, true);
            }
        }
    };
    class_mask(unpinned, |s| !s.pinned);
    class_mask(interiors, |s| s.interior);
    let n = cfg.rpo.len();
    refill(keep, n * words, !0u64);
    refill(gen, n * words, 0);
    for (pos, bs) in sums.blocks.iter().enumerate() {
        let (keep, gen) = (
            &mut keep[pos * words..][..words],
            &mut gen[pos * words..][..words],
        );
        for (w, word) in keep.iter_mut().enumerate() {
            if bs.classes & KILLS_ALL != 0 {
                *word = 0;
            }
            if bs.classes & KILLS_UNPINNED != 0 {
                *word &= !unpinned[w];
            }
            if bs.classes & KILLS_INTERIORS != 0 {
                *word &= !interiors[w];
            }
        }
        for &s in &sums.killed[bs.killed.0 as usize..bs.killed.1 as usize] {
            set_bits(keep, slot_facts[s as usize], false);
        }
        for g in bs.gens.0 as usize..bs.gens.1 as usize {
            if !sums.gens[g].2 {
                set_bits(gen, (sums.gen_fact[g], sums.gen_fact[g] + 1), true);
            }
        }
    }

    // 2. Fixpoint: OUT[b] = transfer(meet(preds)). An uncomputed block is
    // ⊤: back-edge predecessors start optimistic so facts can circulate
    // through loops, then shrink to the fixpoint.
    let rpo_pos = |b: BlockId| cfg.rpo_index[b.0 as usize].map(|i| i as usize);
    refill(out, n * words, 0);
    refill(computed, n, false);
    refill(entry, words, 0);
    refill(next, words, 0);
    let meet = |out: &[u64], computed: &[bool], b: BlockId, acc: &mut [u64]| -> bool {
        let mut any = false;
        for &p in cfg.preds(b) {
            let Some(pp) = rpo_pos(p).filter(|&pp| computed[pp]) else {
                continue;
            };
            let po = &out[pp * words..][..words];
            if any {
                acc.iter_mut().zip(po).for_each(|(a, o)| *a &= o);
            } else {
                acc.copy_from_slice(po);
                any = true;
            }
        }
        // The entry (no predecessors) starts with nothing available; a
        // block whose predecessors are all uncomputed stays ⊤ for now.
        if !any && cfg.preds(b).is_empty() {
            acc.fill(0);
            any = true;
        }
        any
    };
    loop {
        let mut changed = false;
        for (pos, &b) in cfg.rpo.iter().enumerate() {
            if !meet(out, computed, b, entry) {
                continue;
            }
            let bs = &sums.blocks[pos];
            for (w, word) in next.iter_mut().enumerate() {
                *word = entry[w] & keep[pos * words + w] | gen[pos * words + w];
            }
            for g in bs.gens.0 as usize..bs.gens.1 as usize {
                let (k, _, if_absent) = sums.gens[g];
                if if_absent && first_in(entry, eng.t.keys[k as usize].facts).is_none() {
                    set_bits(next, (sums.gen_fact[g], sums.gen_fact[g] + 1), true);
                }
            }
            if !computed[pos] || out[pos * words..][..words] != next[..] {
                out[pos * words..][..words].copy_from_slice(next);
                computed[pos] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Rewrite with the converged entry sets.
    let rw = Rewrite {
        types: &f.value_types,
        dom: Some(dom),
    };
    let mut elided = 0;
    for (&b, bs) in cfg.rpo.iter().zip(&sums.blocks) {
        let asked = &sums.asked[bs.asked.0 as usize..bs.asked.1 as usize];
        if !bs.hit && asked.is_empty() || !meet(out, computed, b, entry) {
            continue;
        }
        let entry_has = |&k: &u32| first_in(entry, eng.t.keys[k as usize].facts).is_some();
        if bs.hit || asked.iter().any(entry_has) {
            elided += eng.walk(&mut f.blocks[b.0 as usize], b, Some(entry), Some(&rw));
        }
    }
    *tables = eng.t;
    elided
}

/// Operand invariance w.r.t. a loop: constants and addresses are
/// invariant; a value is invariant when it is defined outside the loop
/// (params count as entry-defined).
fn operand_invariant(
    op: &Operand,
    l: &rsti_ir::NaturalLoop,
    census: &AliasCensus,
) -> bool {
    match op {
        Operand::Value(v) => match census.def_block.get(v.0 as usize).copied().flatten() {
            Some(b) => !l.contains(b),
            None => true,
        },
        _ => true,
    }
}

/// Instructions that may run *after* a hoisted pair instead of before it:
/// no memory write, no trap, no observable output. Everything the frontend
/// puts ahead of a condition's pointer loads in a loop header qualifies.
fn is_reorder_safe(inst: &Inst) -> bool {
    match inst {
        Inst::BitCast { .. } | Inst::Convert { .. } | Inst::Cmp { .. } => true,
        Inst::Bin { op, .. } => {
            !matches!(op, rsti_ir::BinOp::Div | rsti_ir::BinOp::Rem)
        }
        Inst::PacSign { .. } | Inst::PacStrip { .. } => true,
        _ => false,
    }
}

/// Stage 1 of the CFG pipeline: loop-invariant auth hoisting. A
/// load+authenticate pair in a loop *header* whose address (and STL
/// location) is loop-invariant, whose slot the loop never writes, and
/// which is preceded only by reorder-safe instructions moves to the loop's
/// preheader.
///
/// Guaranteed-execution reasoning: the header runs on every loop entry —
/// including zero-trip entries — exactly once before the preheader could
/// matter, and (the loop body never writing the slot) every in-loop
/// re-execution of the pair is identical to the first. Moving the first
/// execution one edge earlier therefore preserves behaviour bit-for-bit,
/// traps included; what changes is that iterations 2..N re-use the
/// authenticated register. The header trivially dominates every loop exit,
/// so this is the "block dominates all exits" hoisting condition
/// specialized to the one placement that is also zero-trip-safe.
///
/// `stage` supplies the kill rule for the "never writes" check: at
/// [`Elision::Ipo`] a loop body containing a call to a summarized-clean
/// callee no longer pins its header pairs in place.
///
/// `forest` is the loop forest after [`rsti_ir::insert_preheaders`]: every
/// header has a dedicated preheader as its single out-of-loop predecessor.
/// Returns the number of pairs hoisted.
fn hoist_loop_auths(f: &mut rsti_ir::Function, sc: &mut Scratch, stage: Elision<'_>) -> usize {
    let Scratch { cfg, forest, census, eng, .. } = sc;
    let mut hoisted = 0;
    let mut kills = Engine::new(census, stage, f.value_types.len(), std::mem::take(eng));
    for l in &forest.loops {
        if l.header == BlockId(0) {
            continue;
        }
        let mut entries = cfg.preds(l.header).iter().copied().filter(|p| !l.contains(*p));
        let (Some(ph), None) = (entries.next(), entries.next()) else { continue };
        if cfg.succs(ph) != [l.header] {
            continue;
        }
        // The scan resumes where the last hoisted pair was: everything
        // before it is unchanged and already passed.
        let mut loop_kills = None;
        let mut from = 0;
        while let Some(li) = find_hoistable_pair(f, l, census, &mut kills, &mut loop_kills, from) {
            let mut header = std::mem::take(&mut f.blocks[l.header.0 as usize].insts);
            f.blocks[ph.0 as usize].insts.extend(header.drain(li..li + 2));
            f.blocks[l.header.0 as usize].insts = header;
            hoisted += 1;
            from = li;
        }
    }
    *eng = kills.t;
    hoisted
}

/// The CFG-scoped run over one function: loop-invariant auth hoisting,
/// then the dataflow, both with `stage`'s kill rule. Returns `(hoisted,
/// elided)`.
///
/// The two share one CFG, dominator tree and alias census: once the
/// preheaders are in (and the three analyses updated for them in place),
/// hoisting and elision only move loads and auths or turn auths into
/// copies, which changes neither the CFG nor which allocas escape. Every
/// loop of a reducible CFG gets a preheader, even one that ends up empty:
/// block transfers cost model cycles, so the CFG shape is part of the
/// output. Irreducible CFGs (never produced by structured MiniC,
/// conceivable in hand-built IR) make the loop forest bail out, and
/// nothing is hoisted.
fn cfg_stages(f: &mut rsti_ir::Function, sc: &mut Scratch, stage: Elision<'_>) -> (usize, usize) {
    sc.cfg.recompute(f);
    sc.dom.recompute(&sc.cfg);
    sc.forest.recompute(&sc.cfg, &sc.dom);
    // The entry block has an implicit function-entry edge no preheader
    // can capture; a loop headed there is not hoistable.
    let forest = &sc.forest;
    let loops = !forest.irreducible && forest.loops.iter().any(|l| l.header != BlockId(0));
    if loops {
        rsti_ir::insert_preheaders(f, &sc.forest);
        sc.cfg.recompute(f);
        sc.dom.recompute(&sc.cfg);
        sc.forest.recompute(&sc.cfg, &sc.dom);
    }
    sc.census.recompute(f);
    let hoisted = if loops { hoist_loop_auths(f, sc, stage) } else { 0 };
    (hoisted, elide_in_function(f, sc, stage))
}

/// Finds the first header-resident load+auth pair at or after `from` that
/// satisfies every hoisting condition; returns its index. The loop's kills
/// are recorded on `kills`' clock once, on the first candidate that needs
/// them; `loop_kills` keeps the clock reading they started after.
fn find_hoistable_pair(
    f: &rsti_ir::Function,
    l: &rsti_ir::NaturalLoop,
    census: &AliasCensus,
    kills: &mut Engine<'_>,
    loop_kills: &mut Option<u32>,
    from: usize,
) -> Option<usize> {
    let header = &f.blocks[l.header.0 as usize];
    for (i, node) in header.insts.iter().enumerate().skip(from) {
        if !is_reorder_safe(&node.inst)
            && !matches!(node.inst, Inst::Load { .. })
        {
            return None; // a kill/trap/output point: nothing past it moves
        }
        let Inst::Load { result, ptr, .. } = &node.inst else { continue };
        let Some(Inst::PacAuth { value: Operand::Value(raw), loc, .. }) =
            header.insts.get(i + 1).map(|n| &n.inst)
        else {
            // A bare load is reorder-safe only when it cannot trap: a load
            // straight off an alloca's own address (frame storage is
            // always mapped). Anything else could fault, and the hoisted
            // auth must not run ahead of a fault.
            if matches!(ptr, Operand::Value(v) if census.is_alloca(*v)) {
                continue;
            }
            return None;
        };
        if raw != result {
            return None;
        }
        let slot = slot_key(ptr)?;
        let invariant = operand_invariant(ptr, l, census)
            && loc.as_ref().is_none_or(|lo| operand_invariant(lo, l, census));
        if !invariant {
            return None;
        }
        // The loop must never write the slot (pair instructions themselves
        // are loads/auths, not kills, so hoisting leaves this unchanged).
        let start = *loop_kills.get_or_insert_with(|| {
            let start = kills.clock;
            for &b in &l.blocks {
                for n in &f.blocks[b.0 as usize].insts {
                    kills.clock += 1;
                    kills.kill(&n.inst);
                }
            }
            start
        });
        let s = kills.slot(slot);
        return (!kills.killed_since(s, start)).then_some(i);
    }
    None
}

/// Stage 3 of the CFG pipeline: precomputed PAC modifiers. An STL
/// location-mix whose `loc` is a global (or null) resolves statically:
/// the loader's global layout is deterministic
/// ([`rsti_ir::Module::global_addresses`] — the same function the VM
/// uses), so `M ^ canonical(&g)` folds into the instruction's immediate
/// modifier and `loc` drops to `None`. The VM's check path then skips
/// per-execution modifier derivation (and its modeled `eor` surcharge)
/// for these sites. Returns the number of modifiers folded.
pub fn precompute_pac_modifiers(m: &mut Module) -> usize {
    let (gaddrs, _) = m.global_addresses();
    let va = rsti_pac::VaConfig::paper_default();
    let mut folded = 0;
    for f in &mut m.funcs {
        for blk in &mut f.blocks {
            for node in &mut blk.insts {
                let (Inst::PacSign { modifier, loc, .. } | Inst::PacAuth { modifier, loc, .. }) =
                    &mut node.inst
                else {
                    continue;
                };
                match loc {
                    Some(Operand::GlobalAddr(g, _)) => {
                        *modifier ^= va.canonical(gaddrs[g.0 as usize]);
                        *loc = None;
                        folded += 1;
                    }
                    Some(Operand::Null(_)) => {
                        // canonical(0) == 0: the mix is the identity.
                        *loc = None;
                        folded += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    folded
}

// ---------------------------------------------------------------------------
// The OptLevel-driven pipeline
// ---------------------------------------------------------------------------

/// Optimization level for the check-optimizer pipeline. One knob drives
/// the CLI (`--opt`), the bench binaries, and the fuzz oracle matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Run the instrumented program exactly as the pass emitted it.
    None,
    /// Single-store slot promotion + per-block redundant-auth elision
    /// (the pre-CFG optimizer).
    BlockLocal,
    /// Promotion plus the CFG-aware stages: loop-invariant auth hoisting,
    /// dominator-based elision in place of the per-block one, precomputed
    /// PAC modifiers.
    Cfg,
    /// Cfg with the interprocedural stages built on the call graph
    /// ([`rsti_ir::CallGraph`]): internal-boundary resign folding and
    /// size-budgeted inlining of small non-recursive callees first, then a
    /// dataflow with summary-refined call kills plus sign→store forwarding
    /// in place of cfg's (see [`crate::ipo`]).
    Ipo,
}

impl OptLevel {
    /// All levels, weakest first.
    pub const ALL: [OptLevel; 4] =
        [OptLevel::None, OptLevel::BlockLocal, OptLevel::Cfg, OptLevel::Ipo];

    /// Short stable label (`none` / `block` / `cfg` / `ipo`) for tables,
    /// configs, and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::BlockLocal => "block",
            OptLevel::Cfg => "cfg",
            OptLevel::Ipo => "ipo",
        }
    }

    /// Parses a level name as accepted by `rsti --opt`.
    ///
    /// # Errors
    /// Returns a message listing the accepted names.
    pub fn parse(s: &str) -> Result<OptLevel, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "none" | "0" => OptLevel::None,
            "block" | "block-local" | "blocklocal" | "1" => OptLevel::BlockLocal,
            "cfg" | "2" => OptLevel::Cfg,
            "ipo" | "3" => OptLevel::Ipo,
            other => return Err(format!("unknown opt level `{other}` (none|block|cfg|ipo)")),
        })
    }
}

/// What one pipeline run removed, per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptSummary {
    /// Load(+auth) sites promoted to copies by mem2reg.
    pub promoted: usize,
    /// Auths elided by the level's one elision run: block-scoped at
    /// `block`, the CFG dataflow at `cfg`, the summary-refined dataflow at
    /// `ipo`.
    pub elided: usize,
    /// Load(+auth) pairs hoisted to loop preheaders.
    pub hoisted: usize,
    /// STL modifiers folded to immediates.
    pub premods: usize,
    /// Dead value ids dropped by the final renumbering.
    pub compacted: usize,
    /// Sign→auth round-trips folded at known-internal call boundaries
    /// (ipo only; each fold removes one sign and one auth).
    pub resigns_folded: usize,
    /// Call sites inlined by the post-instrumentation inliner (ipo only).
    pub inlined: usize,
    /// Static call sites whose kill set the callee summaries weakened
    /// below the intraprocedural `AllButNonEscaped` default (ipo only).
    pub refined: usize,
}

impl OptSummary {
    /// Total check sites removed (modifier folds excluded — those sites
    /// still check, they just derive nothing at runtime).
    pub fn total(&self) -> usize {
        self.promoted + self.elided + self.hoisted + self.resigns_folded
    }
}

/// Dense value-id renumbering — the post-optimize hook both execution
/// engines size their per-frame state from. The elision stages delete
/// instructions but leave their `ValueId`s allocated, so `value_types`
/// keeps a slot for every removed auth in every frame: the interpreter's
/// register file and the compiled engine's operand-slot tables stay as
/// wide as the *unoptimized* function. Compaction renumbers the surviving
/// values densely (order-preserving, so diffs stay readable) and shrinks
/// the type table to match.
///
/// A function holding an out-of-range value reference is left untouched:
/// such references never come from the frontend, and renumbering a
/// malformed function would change *which* reference dangles.
///
/// Returns the number of value slots dropped across the module.
pub fn compact_values(m: &mut Module) -> usize {
    fn remap_op(op: &mut Operand, remap: &[u32]) {
        if let Operand::Value(v) = op {
            v.0 = remap[v.0 as usize];
        }
    }

    let mut dropped = 0usize;
    for f in &mut m.funcs {
        if f.is_external {
            continue;
        }
        let n = f.value_types.len();
        let mut used = vec![false; n];
        let mut in_range = true;
        let mut mark = |v: ValueId| match used.get_mut(v.0 as usize) {
            Some(u) => *u = true,
            None => in_range = false,
        };
        for (pv, _) in &f.params {
            mark(*pv);
        }
        for b in &f.blocks {
            for node in &b.insts {
                if let Some(r) = node.inst.result() {
                    mark(r);
                }
                node.inst.for_each_operand(|op| {
                    if let Operand::Value(v) = op {
                        mark(*v);
                    }
                });
            }
            if let Some(Operand::Value(v)) = b.term.operand() {
                mark(*v);
            }
        }
        if !in_range {
            continue;
        }
        let live = used.iter().filter(|&&u| u).count();
        if live == n {
            continue;
        }
        let mut remap = vec![u32::MAX; n];
        let mut new_types = Vec::with_capacity(live);
        for (i, &u) in used.iter().enumerate() {
            if u {
                remap[i] = new_types.len() as u32;
                new_types.push(f.value_types[i]);
            }
        }
        for (pv, _) in &mut f.params {
            pv.0 = remap[pv.0 as usize];
        }
        for b in &mut f.blocks {
            for node in &mut b.insts {
                if let Some(r) = node.inst.result_mut() {
                    r.0 = remap[r.0 as usize];
                }
                node.inst.for_each_operand_mut(|op| remap_op(op, &remap));
            }
            b.term.operand_mut().into_iter().for_each(|op| remap_op(op, &remap));
        }
        f.value_types = new_types;
        dropped += n - live;
    }
    dropped
}

fn verify_stage(m: &Module, stage: &str) {
    debug_assert!(
        rsti_ir::verify_module(m).is_ok(),
        "optimizer stage `{stage}` broke the module: {:?}",
        rsti_ir::verify_module(m).err()
    );
    let _ = (m, stage);
}

/// The one configurable pipeline over any module — instrumented or
/// baseline (on a baseline module the auth-specific stages are no-ops and
/// mem2reg/hoisting still apply, keeping overhead comparisons fair).
/// `verify_module` holds after every stage boundary (checked in debug
/// builds here and by the fuzz oracle's verifier oracle in release).
pub fn optimize_module(m: &mut Module, level: OptLevel) -> OptSummary {
    let mut s = OptSummary::default();
    if level == OptLevel::None {
        return s;
    }
    if level == OptLevel::Ipo {
        // Whole-module shape changes come first, so every later stage —
        // including summary construction — sees the final call structure.
        s.resigns_folded = crate::ipo::fold_boundary_resigns(m);
        verify_stage(m, "resign-fold");
        s.inlined = crate::ipo::inline_small_functions(m, crate::ipo::IPO_INLINE_BUDGET);
        verify_stage(m, "ipo-inline");
    }
    let mut sc = Scratch::default();
    s.promoted = promote_with(m, &mut sc.promote);
    verify_stage(m, "promote");
    let ipo_env = (level == OptLevel::Ipo).then(|| crate::ipo::IpoAnalysis::build(m));
    let stage = match &ipo_env {
        Some(a) => Elision::Ipo(&a.summaries),
        None if level == OptLevel::Cfg => Elision::Cfg,
        None => Elision::Block,
    };
    (s.hoisted, s.elided) = elide_redundant_auths(m, stage, &mut sc);
    verify_stage(m, "elide");
    if level != OptLevel::BlockLocal {
        s.refined = ipo_env.as_ref().map_or(0, |a| a.refined_call_sites);
        s.premods = precompute_pac_modifiers(m);
        verify_stage(m, "premod");
    }
    s.compacted = compact_values(m);
    verify_stage(m, "compact");
    s
}

/// [`optimize_module`] over an instrumented program, with the telemetry
/// span and per-stage counters.
pub fn optimize_program_at(
    p: &mut crate::instrument::InstrumentedProgram,
    level: OptLevel,
) -> OptSummary {
    let tel = rsti_telemetry::global();
    let _span = tel.span(rsti_telemetry::Phase::Optimize);
    let s = optimize_module(&mut p.module, level);
    // Each level's one elision run counts under that level's counter;
    // promotion counts with the block-local work at every level.
    let (block, dom, ipo) = match level {
        OptLevel::Cfg => (0, s.elided, 0),
        OptLevel::Ipo => (0, 0, s.elided),
        _ => (s.elided, 0, 0),
    };
    tel.add(rsti_telemetry::CounterId::AuthsElidedBlock, (s.promoted + block) as u64);
    tel.add(rsti_telemetry::CounterId::AuthsElidedDom, dom as u64);
    tel.add(rsti_telemetry::CounterId::AuthsHoisted, s.hoisted as u64);
    tel.add(rsti_telemetry::CounterId::ModifiersPrecomputed, s.premods as u64);
    tel.add(
        rsti_telemetry::CounterId::AuthsElidedIpo,
        (ipo + s.resigns_folded) as u64,
    );
    tel.add(rsti_telemetry::CounterId::CallsInlined, s.inlined as u64);
    tel.add(
        rsti_telemetry::CounterId::SummaryKillRefinements,
        s.refined as u64,
    );
    s
}

/// Leaf-function inlining — the LTO/O2 component of the paper's pipeline
/// (§5: the pass runs in the LTO phase over the combined module, with the
/// runtime library inlined; §6.3.2 credits "LTO and -O2 optimizations"
/// for the gap to PARTS).
///
/// A callee qualifies when it is a leaf (no calls of its own), passes the
/// frame-safety gate of `inline_calls`, and is at most `max_insts`
/// instructions. Run **before** instrumentation, like LLVM's inliner runs
/// before the RSTI pass: argument-passing boundaries disappear, so STL has
/// nothing to re-sign there — exactly the effect O2 inlining has on the
/// paper's numbers.
///
/// Returns the number of call sites inlined.
pub fn inline_leaf_functions(m: &mut Module, max_insts: usize) -> usize {
    inline_calls(
        m,
        |f| f.insts().all(|n| !matches!(n.inst, Inst::Call { .. } | Inst::CallIndirect { .. })),
        max_insts,
    )
}

/// Per-caller growth cap for the inliners: once a caller's body exceeds
/// this many instructions, no further sites in it are inlined.
const CALLER_GROWTH_CAP: usize = 4096;

/// The one inliner loop. Callers are visited bottom-up over
/// [`rsti_ir::CallGraph`], so a callee is fully inlined into before its own
/// callers are considered; in each caller, the first direct call to a
/// callee that passes `gate` and [`callee_inlinable`] (both evaluated once,
/// up front) and is at most `budget` instructions (checked live) is
/// spliced, until none is left or the caller outgrows
/// [`CALLER_GROWTH_CAP`]. Both gates exclude recursive callees (a leaf
/// makes no calls; the ipo module gate refuses recursion), so no caller
/// ever splices itself.
///
/// Returns the number of call sites inlined.
pub(crate) fn inline_calls(
    m: &mut Module,
    gate: impl Fn(&rsti_ir::Function) -> bool,
    budget: usize,
) -> usize {
    let cg = rsti_ir::CallGraph::new(m);
    let inlinable: Vec<bool> = m.funcs.iter().map(|f| gate(f) && callee_inlinable(f)).collect();
    let mut inlined = 0usize;
    for fid in cg.bottom_up().flat_map(|c| cg.sccs[c].iter()) {
        let caller_idx = fid.0 as usize;
        while m.funcs[caller_idx].inst_count() <= CALLER_GROWTH_CAP {
            let site = m.funcs[caller_idx].blocks.iter().enumerate().find_map(|(bi, blk)| {
                let ii = blk.insts.iter().position(|node| {
                    matches!(&node.inst, Inst::Call { callee, .. }
                        if inlinable[callee.0 as usize]
                            && m.funcs[callee.0 as usize].inst_count() <= budget)
                })?;
                Some((bi, ii))
            });
            let Some((bi, ii)) = site else { break };
            splice_call_site(m, caller_idx, bi, ii);
            inlined += 1;
        }
    }
    debug_assert!(
        rsti_ir::verify_module(m).is_ok(),
        "inliner broke the module: {:?}",
        rsti_ir::verify_module(m).err()
    );
    inlined
}

/// The frame-safety gate every inlined callee passes. Defined, and:
///
/// * **Every alloca non-escaped** — an escaping slot address could be
///   observed (via `&local` pointer comparisons) to have one address per
///   *call* before inlining but one per *caller frame* after.
/// * **Every alloca store-initialized in its own block before any other
///   use** — the VM zeroes a frame slot once per frame activation, so an
///   inlined body re-entered in a loop would otherwise read the previous
///   iteration's values where a fresh callee frame read zeros.
fn callee_inlinable(f: &rsti_ir::Function) -> bool {
    if f.is_external || f.blocks.is_empty() {
        return false;
    }
    let census = alias_census(f);
    if census.alloca != census.non_escaped {
        return false;
    }
    // Every alloca must be the target of a Store, in its own block, before
    // any other use of it (PacSign/PacAuth `loc` operands are modifier
    // metadata, not reads, and may precede the store).
    for blk in &f.blocks {
        let mut uninitialized: Vec<ValueId> = Vec::new();
        for node in &blk.insts {
            match &node.inst {
                Inst::Alloca { result, .. } => uninitialized.push(*result),
                Inst::Store { value, ptr } => {
                    if let Operand::Value(v) = value {
                        if uninitialized.contains(v) {
                            return false;
                        }
                    }
                    if let Operand::Value(v) = ptr {
                        uninitialized.retain(|u| u != v);
                    }
                }
                other => {
                    let loc_only = match other {
                        Inst::PacSign { value, .. } | Inst::PacAuth { value, .. } => {
                            // The loc operand is benign; the value operand
                            // is a real use.
                            !matches!(value, Operand::Value(v) if uninitialized.contains(v))
                        }
                        _ => false,
                    };
                    let mut reads_uninitialized = false;
                    if !loc_only {
                        other.for_each_operand(|op| {
                            reads_uninitialized |=
                                matches!(op, Operand::Value(v) if uninitialized.contains(v));
                        });
                    }
                    if reads_uninitialized {
                        return false;
                    }
                }
            }
        }
        if !uninitialized.is_empty() {
            return false;
        }
    }
    true
}

/// Replaces the direct call at `(caller_idx, bi, ii)` with a spliced copy
/// of the callee's body. The callee may itself contain calls: `FuncId`s
/// are module-level and survive the splice untouched.
fn splice_call_site(m: &mut Module, caller_idx: usize, bi: usize, ii: usize) {
    use rsti_ir::BasicBlock;

    // Clone what we need from the callee before mutating the caller.
    let (callee_id, result, args) = {
        let node = &m.funcs[caller_idx].blocks[bi].insts[ii];
        match &node.inst {
            Inst::Call { result, callee, args } => (*callee, *result, args.clone()),
            _ => unreachable!("site points at a call"),
        }
    };
    let callee = m.funcs[callee_id.0 as usize].clone();
    let caller = &mut m.funcs[caller_idx];

    // Value remap: callee params -> arg operands; everything else
    // gets fresh caller ids.
    let value_base = caller.value_types.len() as u32;
    let mut param_map: Vec<Option<Operand>> = vec![None; callee.value_types.len()];
    for (&(pv, _), arg) in callee.params.iter().zip(args) {
        *dense(&mut param_map, pv) = Some(arg);
    }
    let remap = |op: &mut Operand| {
        if let Operand::Value(v) = op {
            *op = match param_map.get(v.0 as usize) {
                Some(Some(repl)) => repl.clone(),
                _ => Operand::Value(ValueId(value_base + v.0)),
            };
        }
    };
    // Extend the caller's value table with the callee's (params
    // included; their slots go unused).
    caller.value_types.extend(callee.value_types.iter().copied());

    let block_base = caller.blocks.len() as u32;
    // The continuation receives everything after the call plus the
    // original terminator.
    let cont_id = BlockId(block_base + callee.blocks.len() as u32);
    let call_blk = &mut caller.blocks[bi];
    let tail: Vec<InstNode> = call_blk.insts.split_off(ii + 1);
    call_blk.insts.pop(); // drop the call itself
    let cont = BasicBlock {
        insts: tail,
        term: std::mem::replace(&mut call_blk.term, Terminator::Br(BlockId(block_base))),
        term_loc: call_blk.term_loc,
    };

    // Splice callee blocks, remapping operands, block ids, and
    // turning returns into copies + branches to the continuation.
    let ret_ty = callee.sig.ret;
    for cblk in callee.blocks {
        let mut nb = BasicBlock::new();
        for mut node in cblk.insts {
            // Results always become fresh caller values (params are never
            // results).
            if let Some(r) = node.inst.result_mut() {
                r.0 += value_base;
            }
            node.inst.for_each_operand_mut(remap);
            nb.insts.push(node);
        }
        nb.term_loc = cblk.term_loc;
        let mut term = cblk.term;
        term.operand_mut().into_iter().for_each(remap);
        nb.term = match term {
            Terminator::Br(b) => Terminator::Br(BlockId(block_base + b.0)),
            Terminator::CondBr { cond, then_bb, else_bb } => Terminator::CondBr {
                cond,
                then_bb: BlockId(block_base + then_bb.0),
                else_bb: BlockId(block_base + else_bb.0),
            },
            Terminator::Ret(v) => {
                if let (Some(res), Some(value)) = (result, v) {
                    let copy = if m.types.is_ptr(ret_ty) {
                        Inst::BitCast { result: res, value, to: ret_ty }
                    } else {
                        Inst::Convert { result: res, value, to: ret_ty }
                    };
                    nb.insts.push(InstNode { inst: copy, loc: cblk.term_loc });
                }
                Terminator::Br(cont_id)
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        caller.blocks.push(nb);
    }
    caller.blocks.push(cont);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::instrument;
    use crate::sti::Mechanism;
    use rsti_frontend::compile;

    const REPEATY: &str = r#"
        struct s { long a; long b; };
        int main() {
            struct s* p = (struct s*) malloc(sizeof(struct s));
            // Three reads of `p` in a row: two re-auths are redundant.
            p->a = 1;
            long x = p->a + p->b;
            long y = p->b + p->a;
            return (int) (x + y);
        }
    "#;

    #[test]
    fn elides_some_auths_and_stays_well_formed() {
        let m = compile(REPEATY, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stwc);
        let before = count_auths(&p.module);
        let elided = optimize_program_at(&mut p, OptLevel::Cfg).total();
        let after = count_auths(&p.module);
        assert!(elided > 0, "expected redundancy in {REPEATY}");
        assert!(after < before, "auths must shrink: {before} -> {after}");
        rsti_ir::verify_module(&p.module).unwrap();
    }

    #[test]
    fn stores_invalidate_the_cache() {
        let src = r#"
            int main() {
                int* p = (int*) malloc(4);
                int* q = p;      // load p (auth), store q
                *q = 5;
                int* r = p;      // p reloaded AFTER a store: must re-auth
                return *r;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stwc);
        optimize_program_at(&mut p, OptLevel::Cfg);
        // Behaviour must be unchanged.
        rsti_ir::verify_module(&p.module).unwrap();
    }

    #[test]
    fn inliner_splices_leaf_calls() {
        let src = r#"
            long square(long x) { return x * x; }
            long twice(long x) { return x + x; }
            int main() {
                long acc = 0;
                for (int i = 0; i < 4; i = i + 1) {
                    acc = acc + square(i) + twice(i);
                }
                print_int(acc);
                return (int) acc;
            }
        "#;
        let mut m = compile(src, "t").unwrap();
        let n = inline_leaf_functions(&mut m, 32);
        assert_eq!(n, 2, "both leaf calls inlined");
        let main = m.func_by_name("main").unwrap();
        assert!(
            m.func(main)
                .insts()
                .all(|node| !matches!(node.inst, Inst::Call { .. })),
            "no direct calls remain in main"
        );
        rsti_ir::verify_module(&m).unwrap();
    }

    #[test]
    fn inliner_skips_recursion_and_big_functions() {
        let src = r#"
            long fact(long n) {
                if (n <= 1) { return 1; }
                return n * fact(n - 1);
            }
            int main() { return (int) fact(5); }
        "#;
        let mut m = compile(src, "t").unwrap();
        assert_eq!(inline_leaf_functions(&mut m, 32), 0, "recursive callee kept");
    }

    fn count_auths(m: &rsti_ir::Module) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.insts())
            .filter(|n| matches!(n.inst, rsti_ir::Inst::PacAuth { .. }))
            .count()
    }

    /// Instrument `src` and run the pipeline at `level`.
    fn opt_at(src: &str, mech: Mechanism, level: OptLevel) -> (OptSummary, rsti_ir::Module) {
        let m = compile(src, "t").unwrap();
        let mut p = instrument(&m, mech);
        let s = optimize_module(&mut p.module, level);
        rsti_ir::verify_module(&p.module).unwrap();
        (s, p.module)
    }

    // `p` is stored twice (once conditionally) so mem2reg leaves the slot
    // alone and the CFG stages are what's under test.
    fn diamond_src(killer: &str) -> String {
        format!(
            r#"
            int sink;
            int main() {{
                int* p = (int*) malloc(4);
                if (sink > 0) {{ p = (int*) malloc(8); }}
                *p = 1;
                if (sink > 1) {{ {killer} }}
                return *p;
            }}
            "#
        )
    }

    #[test]
    fn cfg_elides_cross_block_reauths() {
        let src = diamond_src("sink = 2;");
        let (sb, mb) = opt_at(&src, Mechanism::Stwc, OptLevel::BlockLocal);
        let (sc, mc) = opt_at(&src, Mechanism::Stwc, OptLevel::Cfg);
        assert!(sc.elided > 0, "join re-auth should elide: {sc:?}");
        assert!(
            count_auths(&mc) < count_auths(&mb),
            "cfg must remove auths block-local cannot: {} vs {}",
            count_auths(&mc),
            count_auths(&mb)
        );
        let _ = sb;
    }

    /// Dominator elision never propagates a fact across a block that
    /// stores to the slot, calls, or frees. Each killer variant must elide
    /// nothing; the kill-free control must elide the join's re-auth.
    #[test]
    fn elision_never_crosses_store_call_free() {
        // A store to an unrelated *global* is not a kill for a private
        // stack slot — the control shows the fact flowing.
        let (control, _) = opt_at(&diamond_src("sink = 2;"), Mechanism::Stwc, OptLevel::Cfg);
        assert!(control.elided > 0, "control must elide: {control:?}");

        // Store to the slot itself.
        let (s, _) = opt_at(
            &diamond_src("p = (int*) malloc(4);"),
            Mechanism::Stwc,
            OptLevel::Cfg,
        );
        assert_eq!(s.elided, 0, "store must kill the fact: {s:?}");

        // A call to a function that could reach the (escaped) slot.
        let src = format!(
            "void poke(int** q) {{ }}\n{}",
            diamond_src("poke(&p);")
        );
        let (s, _) = opt_at(&src, Mechanism::Stwc, OptLevel::Cfg);
        assert_eq!(s.elided, 0, "call must kill escaped-slot facts: {s:?}");

        // A free: under the MAC backend a metadata change, kills everything.
        let (s, _) = opt_at(
            &diamond_src("free((int*) malloc(4));"),
            Mechanism::Stwc,
            OptLevel::Cfg,
        );
        assert_eq!(s.elided, 0, "free must kill all facts: {s:?}");
    }

    #[test]
    fn hoists_loop_invariant_header_auth() {
        let src = r#"
            int sink;
            int main() {
                int* p = (int*) malloc(4);
                if (sink > 0) { p = (int*) malloc(4); }
                *p = 0;
                int i = 0;
                while (*p < 10) {
                    *p = *p + 1;
                    i = i + 1;
                }
                return i;
            }
        "#;
        for mech in [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl] {
            let (s, m) = opt_at(src, mech, OptLevel::Cfg);
            assert!(s.hoisted >= 1, "{mech:?}: header pair must hoist: {s:?}");
            rsti_ir::verify_module(&m).unwrap();
        }
    }

    #[test]
    fn loop_body_store_to_slot_blocks_hoisting() {
        // The loop rebinds `p` itself, so its auth is not invariant.
        let src = r#"
            int sink;
            int main() {
                int* p = (int*) malloc(4);
                if (sink > 0) { p = (int*) malloc(4); }
                *p = 0;
                int i = 0;
                while (*p < 10) {
                    p = (int*) malloc(4);
                    *p = i;
                    i = i + 1;
                }
                return i;
            }
        "#;
        let (s, m) = opt_at(src, Mechanism::Stwc, OptLevel::Cfg);
        assert_eq!(s.hoisted, 0, "rebound slot must not hoist: {s:?}");
        rsti_ir::verify_module(&m).unwrap();
    }

    #[test]
    fn precomputes_global_stl_modifiers() {
        let src = r#"
            int* gp;
            int main() {
                gp = (int*) malloc(4);
                *gp = 3;
                return *gp;
            }
        "#;
        let (s, m) = opt_at(src, Mechanism::Stl, OptLevel::Cfg);
        assert!(s.premods > 0, "global STL sites must fold: {s:?}");
        for f in &m.funcs {
            for n in f.insts() {
                if let Inst::PacSign { loc: Some(l), .. } | Inst::PacAuth { loc: Some(l), .. } =
                    &n.inst
                {
                    assert!(
                        !matches!(l, Operand::GlobalAddr(..) | Operand::Null(_)),
                        "static loc survived premod: {:?}",
                        n.inst
                    );
                }
            }
        }
    }

    /// One instrumented pointer read in `b`'s current block: `load` of
    /// `slot` plus an `auth` of the loaded value under modifier 7. Returns
    /// the authenticated value.
    fn load_auth(b: &mut rsti_ir::FunctionBuilder, slot: ValueId, pty: TypeId) -> ValueId {
        let raw = b.load(slot, pty);
        let authed = b.fresh_value(pty);
        b.push_raw(Inst::PacAuth {
            result: authed,
            value: raw.into(),
            key: PacKey::Da,
            modifier: 7,
            loc: None,
            site: rsti_ir::PacSite::OnLoad,
        });
        authed
    }

    /// What `r` became a register copy of, if it did.
    fn copy_source(f: &rsti_ir::Function, r: ValueId) -> Option<ValueId> {
        f.insts().find_map(|n| match &n.inst {
            Inst::BitCast {
                result,
                value: Operand::Value(v),
                ..
            } if *result == r => Some(*v),
            _ => None,
        })
    }

    /// A module with one `main` whose body `body` builds from its pointer
    /// slot (a non-escaped alloca, initialized) and the slot's type.
    fn hand_built(body: impl FnOnce(&mut rsti_ir::FunctionBuilder, ValueId, TypeId)) -> Module {
        let mut m = Module::new("t");
        let i64t = m.types.i64();
        let pty = m.types.ptr(i64t);
        let ret = m.types.i32();
        let fid = m.declare_func("main", rsti_ir::FuncSig::new(ret, vec![]), false);
        let mut b = rsti_ir::FunctionBuilder::new(&mut m, fid);
        let slot = b.alloca(pty, None);
        b.store(Operand::Null(pty), slot);
        body(&mut b, slot, pty);
        b.ret(Some(Operand::ConstInt(0, ret)));
        b.finish();
        rsti_ir::verify_module(&m).unwrap();
        m
    }

    /// The cfg-level elision run over `m`; returns the auths it elided.
    fn elide_cfg(m: &mut Module) -> usize {
        elide_redundant_auths(m, Elision::Cfg, &mut Scratch::default()).1
    }

    /// A block that kills a key and then generates it twice: the second
    /// pair is elided within the block, and what leaves the block is the
    /// first fact after the kill — not the one before it.
    #[test]
    fn killed_key_regenerates_with_its_first_fact_after_the_kill() {
        let (mut first, mut second, mut later) = (ValueId(0), ValueId(0), ValueId(0));
        let mut m = hand_built(|b, slot, pty| {
            let before = load_auth(b, slot, pty);
            b.store(before, slot); // kills the slot's key
            first = load_auth(b, slot, pty);
            second = load_auth(b, slot, pty);
            let next = b.new_block();
            b.br(next);
            b.switch_to(next);
            later = load_auth(b, slot, pty);
        });
        assert_eq!(elide_cfg(&mut m), 2);
        let f = &m.funcs[0];
        assert_eq!(copy_source(f, second), Some(first));
        assert_eq!(copy_source(f, later), Some(first));
        assert_eq!(copy_source(f, first), None);
        rsti_ir::verify_module(&m).unwrap();
    }

    /// A loop whose back edge carries a different fact for the key than
    /// its entry edge: the meet at the header keeps neither, so the
    /// header's auth stays.
    #[test]
    fn back_edge_with_another_value_drops_the_key_at_the_header() {
        let mut header_auth = ValueId(0);
        let mut m = hand_built(|b, slot, pty| {
            load_auth(b, slot, pty);
            let (header, body, exit) = (b.new_block(), b.new_block(), b.new_block());
            b.br(header);
            b.switch_to(header);
            header_auth = load_auth(b, slot, pty);
            let bool_ty = b.module.types.bool();
            b.cond_br(Operand::ConstInt(0, bool_ty), body, exit);
            b.switch_to(body);
            b.store(Operand::Null(pty), slot);
            load_auth(b, slot, pty);
            b.br(header);
            b.switch_to(exit);
        });
        assert_eq!(elide_cfg(&mut m), 0);
        assert_eq!(copy_source(&m.funcs[0], header_auth), None);
        assert!(m.funcs[0].insts().any(|n| matches!(&n.inst,
            Inst::PacAuth { result, .. } if *result == header_auth)));
    }

    /// A loop with nothing to hoist still gets its (empty) preheader: block
    /// transfers cost model cycles, so the CFG shape is part of the output.
    #[test]
    fn loop_without_hoistable_pairs_still_gets_a_preheader() {
        let src = r#"
            int main() {
                long i = 0;
                long acc = 0;
                while (i < 4) { acc = acc + i; i = i + 1; }
                return (int) acc;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let main = m.func_by_name("main").unwrap().0 as usize;
        let blocks = m.funcs[main].blocks.len();
        let (s, opt) = opt_at(src, Mechanism::Stwc, OptLevel::Cfg);
        assert_eq!(s.hoisted, 0, "{s:?}");
        let f = &opt.funcs[main];
        assert_eq!(f.blocks.len(), blocks + 1, "one preheader appended");
        let ph = f.blocks.last().unwrap();
        assert!(ph.insts.is_empty());
        let Terminator::Br(header) = ph.term else {
            panic!("preheader branches to its header")
        };
        let header = &f.blocks[header.0 as usize];
        assert!(
            matches!(header.term, Terminator::CondBr { .. }),
            "the loop test heads the loop"
        );
    }

    #[test]
    fn opt_level_labels_roundtrip() {
        for lv in OptLevel::ALL {
            assert_eq!(OptLevel::parse(lv.label()), Ok(lv));
        }
        assert!(OptLevel::parse("turbo").is_err());
    }

    #[test]
    fn optimize_module_none_is_identity() {
        let m = compile(REPEATY, "t").unwrap();
        let mut p = instrument(&m, Mechanism::Stwc);
        let before = count_auths(&p.module);
        let s = optimize_module(&mut p.module, OptLevel::None);
        assert_eq!(s, OptSummary::default());
        assert_eq!(count_auths(&p.module), before);
    }
}
