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
//! re-checks. Every elision stage runs through one engine,
//! [`elide_redundant_auths`]: one transfer function over "available
//! authentications" (a `(slot, modifier, key)` fact per adjacent load+auth
//! pair) and one fixpoint driver, parameterized by an [`Elision`] value
//! that picks the scope, the kill rule, and the fact sources.
//!
//! * [`OptLevel::BlockLocal`] — single-store slot promotion (mem2reg),
//!   then [`Elision::Block`]: if slot `P` was loaded and authenticated
//!   under modifier `M`, a later identical load+auth pair in the same block
//!   reuses the earlier authenticated value, as long as nothing in between
//!   could have changed memory (any store, call, free or malloc).
//! * [`OptLevel::Cfg`] — adds the CFG-aware stages built on `rsti-ir`'s
//!   dominator tree and loop forest: (1) **loop-invariant auth hoisting** —
//!   a header-resident load+auth pair of a loop-invariant slot the loop
//!   never writes moves to the loop preheader, so a hot loop pays one check
//!   per entry instead of one per iteration (the header runs at least once
//!   whenever the preheader does, so behaviour — traps included — is
//!   preserved even for zero-trip loops); (2) **dominator-based elision**
//!   ([`Elision::Cfg`]) — the facts propagated as a forward dataflow (meet
//!   = intersection over predecessors, reuse gated on the defining block
//!   dominating the use) with *refined* kill-sets: a store through an
//!   alloca's own address kills only that slot, and calls/unknown stores
//!   cannot touch a slot whose address never escaped; (3) **precomputed
//!   PAC modifiers** — an STL location-mix (`M ^ &p`, Fig. 5c) whose
//!   location is a global folds to a plain modifier at optimize time,
//!   because the loader's global layout is deterministic
//!   ([`rsti_ir::Module::global_addresses`]), letting the VM skip
//!   per-execution modifier derivation.
//! * [`OptLevel::Ipo`] — first folds internal-boundary re-signs and inlines
//!   small callees ([`crate::ipo`]); hoisting then uses the summary-refined
//!   kills, and after the cfg elision a second engine run at
//!   [`Elision::Ipo`] adds summary-refined call kills and sign→store
//!   forwarding.
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
    BlockId, Cfg, DomTree, Inst, InstNode, LoopForest, Module, Operand, PacKey, Terminator,
    TypeId, ValueId,
};
use std::collections::{HashMap, HashSet};

/// Fact key for a slot: the address operand must be *syntactically
/// identical* (same value id or same global) — a conservative alias-free
/// guarantee.
#[derive(PartialEq, Eq, Hash, Clone)]
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
    let mut promoted = 0;
    let types = &m.types;
    for f in &mut m.funcs {
        if f.is_external || f.blocks.is_empty() {
            continue;
        }
        promoted += promote_in_function(types, f);
    }
    promoted
}

fn promote_in_function(types: &rsti_ir::TypeTable, f: &mut rsti_ir::Function) -> usize {
    use std::collections::{HashMap as Map, HashSet};

    // 1. Usage census over the original body.
    #[derive(Default)]
    struct Usage {
        stores: Vec<(usize, usize)>, // (block, index) of Store { ptr = slot }
        loads: usize,
        other: bool,
        in_entry_alloca: bool,
    }
    let mut usage: Map<ValueId, Usage> = Map::new();

    for (bi, blk) in f.blocks.iter().enumerate() {
        for (ii, node) in blk.insts.iter().enumerate() {
            match &node.inst {
                Inst::Alloca { result, .. } => {
                    let u = usage.entry(*result).or_default();
                    u.in_entry_alloca = bi == 0;
                }
                Inst::Store { value, ptr } => {
                    if let Operand::Value(v) = ptr {
                        usage.entry(*v).or_default().stores.push((bi, ii));
                    }
                    if let Operand::Value(v) = value {
                        usage.entry(*v).or_default().other = true;
                    }
                }
                Inst::Load { ptr, .. } => {
                    if let Operand::Value(v) = ptr {
                        usage.entry(*v).or_default().loads += 1;
                    }
                }
                other => {
                    for op in other.operands() {
                        if let Operand::Value(v) = op {
                            usage.entry(*v).or_default().other = true;
                        }
                    }
                }
            }
        }
        // Terminator operands count as "other" uses.
        if let Some(Operand::Value(v)) = blk.term.operand() {
            usage.entry(*v).or_default().other = true;
        }
    }

    let candidates: HashSet<ValueId> = usage
        .iter()
        .filter(|(_, u)| {
            u.in_entry_alloca
                && !u.other
                && u.stores.len() == 1
                && u.stores[0].0 == 0
                && u.loads >= 2
        })
        .map(|(v, _)| *v)
        .collect();
    if candidates.is_empty() {
        return 0;
    }

    // 2. Per-candidate: is every entry-block load after the store? And is
    // there an auth following each load (instrumented) or not (baseline)?
    let mut rewrite: Map<ValueId, (usize, usize)> = Map::new(); // slot -> store pos
    for &slot in &candidates {
        let (sb, si) = usage[&slot].stores[0];
        debug_assert_eq!(sb, 0);
        let mut ok = true;
        for (ii, node) in f.blocks[0].insts.iter().enumerate() {
            if let Inst::Load { ptr: Operand::Value(v), .. } = &node.inst {
                if *v == slot && ii < si {
                    ok = false;
                }
            }
        }
        if ok {
            rewrite.insert(slot, (sb, si));
        }
    }
    if rewrite.is_empty() {
        return 0;
    }

    // 3. Rewrite. For each promoted slot, find the modifier/key from the
    // first load's following auth (if any), insert the canonical
    // load(+auth) right after the store, then convert every load(+auth)
    // of the slot into copies.
    let mut promoted = 0usize;
    let mut fresh = {
        let mut next = f.value_types.len() as u32;
        move |tys: &mut Vec<rsti_ir::TypeId>, ty: rsti_ir::TypeId| {
            let id = ValueId(next);
            next += 1;
            tys.push(ty);
            id
        }
    };

    // Descending store order: insertions into the entry block must not
    // shift the recorded positions of slots processed later.
    let mut order: Vec<(ValueId, usize)> =
        rewrite.iter().map(|(&v, &(_, i))| (v, i)).collect();
    order.sort_by_key(|e| std::cmp::Reverse(e.1));
    for (slot, store_idx) in order {
        // Find one auth template + the load type.
        let mut load_ty = None;
        let mut auth_template = None;
        let mut load_results: HashSet<ValueId> = HashSet::new();
        for blk in &f.blocks {
            for (ii, node) in blk.insts.iter().enumerate() {
                if let Inst::Load { result, ptr: Operand::Value(v), ty } = &node.inst {
                    if *v == slot {
                        load_ty = Some(*ty);
                        load_results.insert(*result);
                        // Auth directly consuming this load?
                        if let Some(Inst::PacAuth { key, modifier, loc, site, .. }) =
                            blk.insts.get(ii + 1).map(|n| &n.inst)
                        {
                            auth_template = Some((*key, *modifier, loc.clone(), *site));
                        }
                        if let Some(Inst::PpAuth { .. }) =
                            blk.insts.get(ii + 1).map(|n| &n.inst)
                        {
                            // pp-authenticated slots are left alone: their
                            // tags must be revalidated per load.
                            auth_template = None;
                            load_results.clear();
                        }
                    }
                }
            }
        }
        let Some(load_ty) = load_ty else { continue };
        if load_results.is_empty() {
            continue;
        }
        // Only promote pointer-typed content (what instrumentation cares
        // about; scalar slots are cheap anyway).
        // `load_ty` pointer-ness is checked by the caller's type table via
        // the auth presence; without an auth (baseline) we still promote.

        // Insert canonical load (+ auth) after the store.
        let loc_of_store = f.blocks[0].insts[store_idx].loc;
        let raw = fresh(&mut f.value_types, load_ty);
        let mut insert_at = store_idx + 1;
        f.blocks[0].insts.insert(
            insert_at,
            InstNode {
                inst: Inst::Load { result: raw, ptr: slot.into(), ty: load_ty },
                loc: loc_of_store,
            },
        );
        insert_at += 1;
        let canonical = if let Some((key, modifier, loc, site)) = &auth_template {
            let authed = fresh(&mut f.value_types, load_ty);
            f.blocks[0].insts.insert(
                insert_at,
                InstNode {
                    inst: Inst::PacAuth {
                        result: authed,
                        value: raw.into(),
                        key: *key,
                        modifier: *modifier,
                        loc: loc.clone(),
                        site: *site,
                    },
                    loc: loc_of_store,
                },
            );
            authed
        } else {
            raw
        };

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
        for blk in &mut f.blocks {
            for node in &mut blk.insts {
                match &node.inst {
                    Inst::Load { result, ptr: Operand::Value(v), .. }
                        if *v == slot && *result != raw =>
                    {
                        node.inst = copy(*result);
                        promoted += 1;
                    }
                    Inst::PacAuth { result, value: Operand::Value(rv), .. }
                        if load_results.contains(rv) =>
                    {
                        node.inst = copy(*result);
                    }
                    _ => {}
                }
            }
        }
    }
    promoted
}

// ---------------------------------------------------------------------------
// The elision engine (every level) and the CFG-aware stages
// ---------------------------------------------------------------------------

/// Per-function alias census: which values are allocas, which of those
/// never escape, and where every value is defined.
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
    allocas: HashSet<ValueId>,
    non_escaped: HashSet<ValueId>,
    /// Defining block per value; `None` for params and never-defined ids
    /// (both behave as "defined at entry").
    def_block: Vec<Option<BlockId>>,
}

fn alias_census(f: &rsti_ir::Function) -> AliasCensus {
    let mut allocas = HashSet::new();
    let mut escaped = HashSet::new();
    let mut def_block = vec![None; f.value_types.len()];
    let mut escape = |op: &Operand| {
        if let Operand::Value(v) = op {
            escaped.insert(*v);
        }
    };
    for (bi, blk) in f.blocks.iter().enumerate() {
        for node in &blk.insts {
            if let Some(r) = node.inst.result() {
                def_block[r.0 as usize] = Some(BlockId(bi as u32));
            }
            match &node.inst {
                Inst::Alloca { result, .. } => {
                    allocas.insert(*result);
                }
                Inst::Load { .. } => {} // ptr use is benign
                Inst::Store { value, .. } => escape(value), // ptr use is benign
                Inst::PacSign { value, .. } | Inst::PacAuth { value, .. } => {
                    escape(value); // loc use is benign (modifier metadata)
                }
                other => other.operands().into_iter().for_each(&mut escape),
            }
        }
        blk.term.operand().into_iter().for_each(&mut escape);
    }
    let non_escaped = allocas.difference(&escaped).copied().collect();
    AliasCensus { allocas, non_escaped, def_block }
}

/// Which elision stage the engine runs: the fact scope, the kill rule, and
/// the fact sources. [`hoist_loop_auths`] takes the same value for its "the
/// loop never writes the slot" check.
#[derive(Clone, Copy)]
pub enum Elision<'a> {
    /// Per-block scope: every block starts with nothing available, and any
    /// store, call, free or malloc kills every fact.
    Block,
    /// CFG dataflow with the alias-census kills (see `AliasCensus`).
    Cfg,
    /// [`Elision::Cfg`] with direct-call kills refined by the callee
    /// summaries, plus sign→store forwarding (see `transfer_block`).
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
            Some(k @ SlotKey::Value(v)) if census.non_escaped.contains(&v) => Kill::OneSlot(k),
            Some(k @ SlotKey::Value(v)) if census.allocas.contains(&v) => {
                Kill::SlotAndInteriors(k)
            }
            Some(SlotKey::Global(g)) => Kill::GlobalAndInteriors(g),
            _ => Kill::AllButNonEscaped,
        },
        // A direct call with an interprocedural summary kills only what
        // the callee (transitively) can write. `frees` is *stronger* than
        // the intraprocedural rule — a heap release invalidates MAC-table
        // state just like a local `free`, which `AllButNonEscaped` would
        // understate — but the ipo stage runs after the cfg one, so
        // stricter kills here can only decline to add elisions, never undo
        // cfg's.
        Inst::Call { callee, .. } => match stage {
            Elision::Ipo(summaries) => {
                let s = &summaries[callee.0 as usize];
                if s.frees {
                    Kill::All
                } else if s.writes_unknown {
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

/// Whether a fact about `slot` survives `kill`.
fn fact_survives(slot: &SlotKey, kill: &Kill<'_>, census: &AliasCensus) -> bool {
    let is_interior = |s: &SlotKey| match s {
        SlotKey::Value(v) => !census.allocas.contains(v),
        SlotKey::Global(_) => false,
    };
    match kill {
        Kill::None => true,
        Kill::OneSlot(k) => slot != k,
        Kill::SlotAndInteriors(k) => slot != k && !is_interior(slot),
        Kill::GlobalAndInteriors(g) => {
            !matches!(slot, SlotKey::Global(x) if x == g) && !is_interior(slot)
        }
        Kill::Globals(gs) => match slot {
            SlotKey::Value(v) => census.allocas.contains(v),
            SlotKey::Global(g) => !gs.contains(g),
        },
        Kill::AllButNonEscaped => {
            matches!(slot, SlotKey::Value(v) if census.non_escaped.contains(v))
        }
        Kill::All => false,
    }
}

/// An "available authentication": the slot/modifier/key triple is mapped to
/// the authenticated value and the block that defined it.
type FactKey = (SlotKey, u64, PacKey);
type FactMap = HashMap<FactKey, (ValueId, BlockId)>;

fn meet_preds(out: &[Option<FactMap>], cfg: &Cfg, b: BlockId) -> Option<FactMap> {
    let mut acc: Option<FactMap> = None;
    for &p in &cfg.preds[b.0 as usize] {
        if !cfg.is_reachable(p) {
            continue;
        }
        match (&mut acc, &out[p.0 as usize]) {
            (_, None) => {} // unprocessed pred = ⊤, identity of the meet
            (None, Some(m)) => acc = Some(m.clone()),
            (Some(a), Some(m)) => {
                a.retain(|k, v| m.get(k) == Some(v));
            }
        }
    }
    acc.or_else(|| {
        // Entry (or a block whose preds are all unprocessed): nothing is
        // available at the entry; stay ⊤ elsewhere until a pred resolves.
        if cfg.preds[b.0 as usize].is_empty() {
            Some(FactMap::new())
        } else {
            None
        }
    })
}

/// How [`transfer_block`] rewrites: the function's value types (an elided
/// auth becomes a register copy typed as its result) and, for CFG-scoped
/// facts, the dominator tree that proves the authenticated register live.
struct Rewrite<'r> {
    types: &'r [TypeId],
    dom: Option<&'r DomTree>,
}

/// One block's transfer function: adjacent load+auth pairs generate facts,
/// memory writes kill them per the stage's rule. With `rewrite` set, an
/// auth whose fact is already available — defined in this block, or in one
/// that dominates it — is replaced with a register copy. Returns the number
/// of auths elided.
///
/// At [`Elision::Ipo`], facts are *also* seeded by sign→store chains: a
/// `Store` whose value is the result of a same-block `PacSign` under
/// `(key, modifier)` records that the slot now holds exactly `sign(v)` — so
/// a later load+auth of that slot under the same class yields `v` and can
/// be elided to a copy of the sign's input. This is what makes
/// call-boundary spill/reload chains (and every `p = q; use *p`
/// store-then-reload idiom) free: the auth after the reload is the inverse
/// of the sign before the store. Soundness is the same narrowed re-check
/// window as every other elision — corruption landing in the slot between
/// the store and the reload goes unverified until the next non-elided check
/// — and the kill rules guard everything else: any intervening write that
/// could alias the slot erases the fact.
fn transfer_block(
    blk: &mut rsti_ir::BasicBlock,
    b: BlockId,
    facts: &mut FactMap,
    census: &AliasCensus,
    stage: Elision<'_>,
    rewrite: Option<&Rewrite<'_>>,
) -> usize {
    let forward = matches!(stage, Elision::Ipo(_));
    let mut elided = 0;
    // Same-block PacSign results: sign result → (input value, key, mod).
    let mut pending_signs: HashMap<ValueId, (ValueId, PacKey, u64)> = HashMap::new();
    for i in 0..blk.insts.len() {
        // Adjacent load+auth pair? (Instrumentation always emits them
        // adjacent; the MAC-table backend depends on the same adjacency.)
        let pair = match &blk.insts[i].inst {
            Inst::Load { result, ptr, .. } => match blk.insts.get(i + 1).map(|n| &n.inst) {
                Some(Inst::PacAuth { result: ar, value: Operand::Value(raw), key, modifier, .. })
                    if raw == result =>
                {
                    slot_key(ptr).map(|s| (s, *modifier, *key, *ar))
                }
                _ => None,
            },
            _ => None,
        };
        if let Some((slot, modifier, key, auth_result)) = pair {
            let fk = (slot, modifier, key);
            match (facts.get(&fk), rewrite) {
                (Some(&(prev, def_b)), Some(rw))
                    if def_b == b || rw.dom.is_some_and(|d| d.dominates(def_b, b)) =>
                {
                    blk.insts[i + 1].inst = Inst::BitCast {
                        result: auth_result,
                        value: prev.into(),
                        to: rw.types[auth_result.0 as usize],
                    };
                    elided += 1;
                }
                (Some(_), _) => {} // analysis pass: fact already available
                (None, _) => {
                    facts.insert(fk, (auth_result, b));
                }
            }
            continue;
        }
        if forward {
            if let Inst::PacSign { result, value: Operand::Value(v), key, modifier, .. } =
                &blk.insts[i].inst
            {
                pending_signs.insert(*result, (*v, *key, *modifier));
            }
        }
        match kill_of(&blk.insts[i].inst, census, stage) {
            Kill::None => {}
            kill => facts.retain(|(slot, _, _), _| fact_survives(slot, &kill, census)),
        }
        if forward {
            // Seed *after* the store's own kill: the slot now provably
            // holds the freshly signed value. The sign and the future
            // reload's auth share the slot's storage class, so matching
            // (slot, modifier, key) suffices — same argument as the
            // load-pair facts above (slot match ⇒ same STL location).
            if let Inst::Store { value: Operand::Value(sv), ptr } = &blk.insts[i].inst {
                if let (Some(&(orig, key, modifier)), Some(slot)) =
                    (pending_signs.get(sv), slot_key(ptr))
                {
                    facts.insert((slot, modifier, key), (orig, b));
                }
            }
        }
    }
    elided
}

/// The redundant-auth elimination engine behind every elision stage. At
/// [`Elision::Block`] each block is rewritten on its own. Otherwise a
/// forward "available authentications" dataflow runs over the CFG
/// (optimistic iteration to the greatest fixpoint, meet = intersection),
/// then a rewrite pass replaces re-authentications whose fact arrives on
/// every path — and whose definition dominates the use, so the
/// authenticated register is live — with register copies.
///
/// The pipeline runs the stages in order, so the count each returns is
/// what that stage added: at [`Elision::Ipo`], exactly the elisions the
/// summaries and the store forwarding earned.
pub fn elide_redundant_auths(m: &mut Module, stage: Elision<'_>) -> usize {
    let mut elided = 0;
    for f in &mut m.funcs {
        if f.is_external || f.blocks.is_empty() {
            continue;
        }
        if let Elision::Block = stage {
            // The block kill rule never consults the census.
            let census = AliasCensus::default();
            let rw = Rewrite { types: &f.value_types, dom: None };
            for (bi, blk) in f.blocks.iter_mut().enumerate() {
                let b = BlockId(bi as u32);
                elided += transfer_block(blk, b, &mut FactMap::new(), &census, stage, Some(&rw));
            }
            continue;
        }
        let census = alias_census(f);
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);

        // Fixpoint: OUT[b] = transfer(meet(preds)). `None` = not yet
        // computed (⊤): back-edge predecessors start optimistic so facts
        // can circulate through loops, then shrink to the fixpoint.
        let mut out: Vec<Option<FactMap>> = vec![None; f.blocks.len()];
        loop {
            let mut changed = false;
            for &b in &cfg.rpo {
                let Some(mut facts) = meet_preds(&out, &cfg, b) else { continue };
                transfer_block(&mut f.blocks[b.0 as usize], b, &mut facts, &census, stage, None);
                let slot = &mut out[b.0 as usize];
                if slot.as_ref() != Some(&facts) {
                    *slot = Some(facts);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Rewrite with the converged IN sets.
        let rw = Rewrite { types: &f.value_types, dom: Some(&dom) };
        for &b in &cfg.rpo {
            let Some(mut facts) = meet_preds(&out, &cfg, b) else { continue };
            let blk = &mut f.blocks[b.0 as usize];
            elided += transfer_block(blk, b, &mut facts, &census, stage, Some(&rw));
        }
    }
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
/// Irreducible CFGs (never produced by structured MiniC, conceivable in
/// hand-built IR) make the loop forest bail out and the function is left
/// untouched. Returns the number of pairs hoisted.
pub fn hoist_loop_auths(m: &mut Module, stage: Elision<'_>) -> usize {
    let mut hoisted = 0;
    for f in &mut m.funcs {
        if f.is_external || f.blocks.is_empty() {
            continue;
        }
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        if forest.irreducible || forest.loops.is_empty() {
            continue;
        }
        // The entry block has an implicit function-entry edge no preheader
        // can capture; a loop headed there is not hoistable.
        if forest.loops.iter().all(|l| l.header == BlockId(0)) {
            continue;
        }
        rsti_ir::insert_preheaders(f, &forest);

        // Re-analyze the new shape: every header now has a dedicated
        // preheader as its single out-of-loop predecessor.
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        let census = alias_census(f);
        for l in &forest.loops {
            if l.header == BlockId(0) {
                continue;
            }
            let entries: Vec<BlockId> = cfg.preds[l.header.0 as usize]
                .iter()
                .copied()
                .filter(|p| !l.contains(*p))
                .collect();
            let [ph] = entries[..] else { continue };
            if cfg.succs[ph.0 as usize] != [l.header] {
                continue;
            }
            while let Some(li) = find_hoistable_pair(f, l, &census, stage) {
                let auth = f.blocks[l.header.0 as usize].insts.remove(li + 1);
                let load = f.blocks[l.header.0 as usize].insts.remove(li);
                let phb = &mut f.blocks[ph.0 as usize];
                phb.insts.push(load);
                phb.insts.push(auth);
                hoisted += 1;
            }
        }
    }
    hoisted
}

/// Finds the first header-resident load+auth pair that satisfies every
/// hoisting condition; returns its index.
fn find_hoistable_pair(
    f: &rsti_ir::Function,
    l: &rsti_ir::NaturalLoop,
    census: &AliasCensus,
    stage: Elision<'_>,
) -> Option<usize> {
    let header = &f.blocks[l.header.0 as usize];
    for (i, node) in header.insts.iter().enumerate() {
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
            if matches!(ptr, Operand::Value(v) if census.allocas.contains(v)) {
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
        // are loads/auths, not kills).
        let never_killed = l.blocks.iter().all(|&b| {
            f.blocks[b.0 as usize]
                .insts
                .iter()
                .all(|n| fact_survives(&slot, &kill_of(&n.inst, census, stage), census))
        });
        if never_killed {
            return Some(i);
        }
        return None;
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
    let gaddrs = m.global_addresses();
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
    /// BlockLocal plus the CFG-aware stages: dominator-based elision,
    /// loop-invariant auth hoisting, precomputed PAC modifiers.
    Cfg,
    /// Cfg plus the interprocedural stages built on the call graph
    /// ([`rsti_ir::CallGraph`]): internal-boundary resign folding,
    /// size-budgeted inlining of small non-recursive callees, and a second
    /// dataflow pass with summary-refined call kills plus sign→store
    /// forwarding (see [`crate::ipo`]).
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
    /// Auths elided by the block-scoped elision stage.
    pub elided_block: usize,
    /// Load(+auth) pairs hoisted to loop preheaders.
    pub hoisted: usize,
    /// Auths elided by the CFG dataflow stage.
    pub elided_dom: usize,
    /// STL modifiers folded to immediates.
    pub premods: usize,
    /// Dead value ids dropped by the final renumbering.
    pub compacted: usize,
    /// Sign→auth round-trips folded at known-internal call boundaries
    /// (ipo only; each fold removes one sign and one auth).
    pub resigns_folded: usize,
    /// Call sites inlined by the post-instrumentation inliner (ipo only).
    pub inlined: usize,
    /// Auths elided by the second, summary-refined dataflow pass (ipo
    /// only).
    pub elided_ipo: usize,
    /// Static call sites whose kill set the callee summaries weakened
    /// below the intraprocedural `AllButNonEscaped` default (ipo only).
    pub refined: usize,
}

impl OptSummary {
    /// Total check sites removed (modifier folds excluded — those sites
    /// still check, they just derive nothing at runtime).
    pub fn total(&self) -> usize {
        self.promoted
            + self.elided_block
            + self.hoisted
            + self.elided_dom
            + self.resigns_folded
            + self.elided_ipo
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
    'funcs: for f in &mut m.funcs {
        if f.is_external {
            continue;
        }
        let n = f.value_types.len();
        let mut used = vec![false; n];
        {
            let mut mark = |v: ValueId| match used.get_mut(v.0 as usize) {
                Some(u) => {
                    *u = true;
                    true
                }
                None => false,
            };
            for (pv, _) in &f.params {
                if !mark(*pv) {
                    continue 'funcs;
                }
            }
            for b in &f.blocks {
                for node in &b.insts {
                    if let Some(r) = node.inst.result() {
                        if !mark(r) {
                            continue 'funcs;
                        }
                    }
                    for op in node.inst.operands() {
                        if let Operand::Value(v) = op {
                            if !mark(*v) {
                                continue 'funcs;
                            }
                        }
                    }
                }
                if let Some(Operand::Value(v)) = b.term.operand() {
                    if !mark(*v) {
                        continue 'funcs;
                    }
                }
            }
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
                node.inst.operands_mut().into_iter().for_each(|op| remap_op(op, &remap));
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
    s.promoted = promote_single_store_slots(m);
    s.elided_block = elide_redundant_auths(m, Elision::Block);
    verify_stage(m, "block-local");
    if matches!(level, OptLevel::Cfg | OptLevel::Ipo) {
        let ipo_env = (level == OptLevel::Ipo).then(|| crate::ipo::IpoAnalysis::build(m));
        let stage = ipo_env.as_ref().map_or(Elision::Cfg, |a| Elision::Ipo(&a.summaries));
        s.hoisted = hoist_loop_auths(m, stage);
        verify_stage(m, "hoist");
        s.elided_dom = elide_redundant_auths(m, Elision::Cfg);
        verify_stage(m, "dataflow");
        if let Some(a) = &ipo_env {
            s.elided_ipo = elide_redundant_auths(m, stage);
            verify_stage(m, "ipo-dataflow");
            s.refined = a.refined_call_sites;
        }
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
    tel.add(
        rsti_telemetry::CounterId::AuthsElidedBlock,
        (s.promoted + s.elided_block) as u64,
    );
    tel.add(rsti_telemetry::CounterId::AuthsElidedDom, s.elided_dom as u64);
    tel.add(rsti_telemetry::CounterId::AuthsHoisted, s.hoisted as u64);
    tel.add(rsti_telemetry::CounterId::ModifiersPrecomputed, s.premods as u64);
    tel.add(
        rsti_telemetry::CounterId::AuthsElidedIpo,
        (s.elided_ipo + s.resigns_folded) as u64,
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
    if census.allocas.len() != census.non_escaped.len() {
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
                    if !loc_only {
                        for op in other.operands() {
                            if let Operand::Value(v) = op {
                                if uninitialized.contains(v) {
                                    return false;
                                }
                            }
                        }
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
    let param_map: HashMap<ValueId, Operand> =
        callee.params.iter().map(|(pv, _)| *pv).zip(args).collect();
    let remap = |op: &mut Operand| {
        if let Operand::Value(v) = op {
            *op = match param_map.get(v) {
                Some(repl) => repl.clone(),
                None => Operand::Value(ValueId(value_base + v.0)),
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
            node.inst.operands_mut().into_iter().for_each(remap);
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
        assert!(sc.elided_dom > 0, "join re-auth should elide: {sc:?}");
        assert!(
            count_auths(&mc) < count_auths(&mb),
            "cfg must remove auths block-local cannot: {} vs {}",
            count_auths(&mc),
            count_auths(&mb)
        );
        let _ = sb;
    }

    /// The satellite property: dominator elision never propagates a fact
    /// across a block that stores to the slot, calls, or frees. Each killer
    /// variant must elide nothing beyond block-local; the kill-free control
    /// must elide the join's re-auth.
    #[test]
    fn elision_never_crosses_store_call_free() {
        // A store to an unrelated *global* is not a kill for a private
        // stack slot — the control shows the fact flowing.
        let (control, _) = opt_at(&diamond_src("sink = 2;"), Mechanism::Stwc, OptLevel::Cfg);
        assert!(control.elided_dom > 0, "control must elide: {control:?}");

        // Store to the slot itself.
        let (s, _) = opt_at(
            &diamond_src("p = (int*) malloc(4);"),
            Mechanism::Stwc,
            OptLevel::Cfg,
        );
        assert_eq!(s.elided_dom, 0, "store must kill the fact: {s:?}");

        // A call to a function that could reach the (escaped) slot.
        let src = format!(
            "void poke(int** q) {{ }}\n{}",
            diamond_src("poke(&p);")
        );
        let (s, _) = opt_at(&src, Mechanism::Stwc, OptLevel::Cfg);
        assert_eq!(s.elided_dom, 0, "call must kill escaped-slot facts: {s:?}");

        // A free: under the MAC backend a metadata change, kills everything.
        let (s, _) = opt_at(
            &diamond_src("free((int*) malloc(4));"),
            Mechanism::Stwc,
            OptLevel::Cfg,
        );
        assert_eq!(s.elided_dom, 0, "free must kill all facts: {s:?}");
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
