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
//! re-checks:
//!
//! * [`OptLevel::BlockLocal`] — single-store slot promotion (mem2reg)
//!   plus a per-block available-auth cache: if slot `P` was loaded and
//!   authenticated under modifier `M`, a later identical load+auth pair in
//!   the same block reuses the earlier authenticated value, as long as
//!   nothing in between could have changed memory (any store, call, free).
//! * [`OptLevel::Cfg`] — adds the CFG-aware stages built on `rsti-ir`'s
//!   dominator tree and loop forest: (1) **dominator-based elision** — the
//!   per-block cache generalized to "available authentications" propagated
//!   as a forward dataflow (meet = intersection over predecessors, reuse
//!   gated on the defining block dominating the use) with *refined*
//!   kill-sets: a store through an alloca's own address kills only that
//!   slot, and calls/unknown stores cannot touch a slot whose address
//!   never escaped; (2) **loop-invariant auth hoisting** — a header-
//!   resident load+auth pair of a loop-invariant slot the loop never
//!   writes moves to the loop preheader, so a hot loop pays one check per
//!   entry instead of one per iteration (the header runs at least once
//!   whenever the preheader does, so behaviour — traps included — is
//!   preserved even for zero-trip loops); (3) **precomputed PAC
//!   modifiers** — an STL location-mix (`M ^ &p`, Fig. 5c) whose location
//!   is a global folds to a plain modifier at optimize time, because the
//!   loader's global layout is deterministic
//!   ([`rsti_ir::Module::global_addresses`]), letting the VM skip
//!   per-execution modifier derivation.
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
    ValueId,
};
use std::collections::{HashMap, HashSet};

/// Runs elision over every function; returns the number of authentication
/// operations removed.
pub fn elide_redundant_auths(m: &mut Module) -> usize {
    let mut elided = 0;
    for f in &mut m.funcs {
        if f.is_external {
            continue;
        }
        for blk in &mut f.blocks {
            elided += elide_block(&mut blk.insts);
        }
    }
    // NB: the module holds placeholder types until
    // `patch_placeholder_types` runs; `optimize_program` verifies after.
    elided
}

/// Cache key: the address operand must be *syntactically identical* (same
/// value id or same constant) — a conservative alias-free guarantee.
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

fn elide_block(insts: &mut Vec<InstNode>) -> usize {
    // (slot, modifier, key) → the authenticated result value.
    let mut cache: HashMap<(SlotKey, u64, rsti_ir::PacKey), ValueId> = HashMap::new();
    // Loads awaiting their PacAuth: raw result → slot key.
    let mut pending_loads: HashMap<ValueId, SlotKey> = HashMap::new();
    let mut elided = 0;

    let out: Vec<InstNode> = insts
        .drain(..)
        .map(|node| {
            let new_inst = match &node.inst {
                Inst::Load { result, ptr, ty } => {
                    if let Some(k) = slot_key(ptr) {
                        pending_loads.insert(*result, k);
                    }
                    Inst::Load { result: *result, ptr: ptr.clone(), ty: *ty }
                }
                // STL modifiers depend on the location operand, but eliding
                // is still sound: the slot-key match guarantees the same
                // slot, hence the same location, hence the same modifier.
                Inst::PacAuth { result, value: Operand::Value(raw), key, modifier, .. } => {
                    match pending_loads.remove(raw) {
                        Some(slot) => {
                            let cache_key = (slot, *modifier, *key);
                            if let Some(&prev) = cache.get(&cache_key) {
                                elided += 1;
                                // Reuse the previously authenticated value:
                                // a register-to-register copy.
                                Inst::BitCast {
                                    result: *result,
                                    value: prev.into(),
                                    to: auth_result_ty_placeholder(),
                                }
                            } else {
                                cache.insert(cache_key, *result);
                                node.inst.clone()
                            }
                        }
                        None => node.inst.clone(),
                    }
                }
                // Anything that can write memory invalidates the cache.
                Inst::Store { .. }
                | Inst::Call { .. }
                | Inst::CallIndirect { .. }
                | Inst::Free { .. }
                | Inst::Malloc { .. } => {
                    cache.clear();
                    node.inst.clone()
                }
                _ => node.inst.clone(),
            };
            InstNode { inst: new_inst, loc: node.loc }
        })
        .collect();
    *insts = out;
    elided
}

// The BitCast `to` type is cosmetic at runtime (the VM copies the value);
// for the verifier it must be a pointer type. We patch it up in a second
// pass because the correct type is the result register's declared type.
fn auth_result_ty_placeholder() -> rsti_ir::TypeId {
    rsti_ir::TypeId(u32::MAX)
}

/// Fixes the placeholder types left by [`elide_redundant_auths`] using the
/// function's value-type table. Exposed separately for testability;
/// [`optimize_program`] runs both.
pub fn patch_placeholder_types(m: &mut Module) {
    for f in &mut m.funcs {
        let types = f.value_types.clone();
        for blk in &mut f.blocks {
            for node in &mut blk.insts {
                if let Inst::BitCast { result, to, .. } = &mut node.inst {
                    if *to == auth_result_ty_placeholder() {
                        *to = types[result.0 as usize];
                    }
                }
            }
        }
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
        if let rsti_ir::Terminator::CondBr { cond: Operand::Value(v), .. } = &blk.term {
            usage.entry(*v).or_default().other = true;
        }
        if let rsti_ir::Terminator::Ret(Some(Operand::Value(v))) = &blk.term {
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
// CFG-aware stages (OptLevel::Cfg)
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
pub(crate) struct AliasCensus {
    pub(crate) allocas: HashSet<ValueId>,
    pub(crate) non_escaped: HashSet<ValueId>,
    /// Defining block per value; `None` for params and never-defined ids
    /// (both behave as "defined at entry").
    def_block: Vec<Option<BlockId>>,
}

pub(crate) fn alias_census(f: &rsti_ir::Function) -> AliasCensus {
    let mut allocas = HashSet::new();
    let mut escaped = HashSet::new();
    let mut def_block = vec![None; f.value_types.len()];
    for (bi, blk) in f.blocks.iter().enumerate() {
        for node in &blk.insts {
            if let Some(r) = node.inst.result() {
                def_block[r.0 as usize] = Some(BlockId(bi as u32));
            }
            let mut escape = |op: &Operand| {
                if let Operand::Value(v) = op {
                    escaped.insert(*v);
                }
            };
            match &node.inst {
                Inst::Alloca { result, .. } => {
                    allocas.insert(*result);
                }
                Inst::Load { .. } => {} // ptr use is benign
                Inst::Store { value, .. } => escape(value), // ptr use is benign
                Inst::PacSign { value, .. } | Inst::PacAuth { value, .. } => {
                    escape(value); // loc use is benign (modifier metadata)
                }
                other => {
                    for op in other.operands() {
                        escape(op);
                    }
                }
            }
        }
        match &blk.term {
            rsti_ir::Terminator::CondBr { cond: Operand::Value(v), .. } => {
                escaped.insert(*v);
            }
            rsti_ir::Terminator::Ret(Some(Operand::Value(v))) => {
                escaped.insert(*v);
            }
            _ => {}
        }
    }
    let non_escaped = allocas.difference(&escaped).copied().collect();
    AliasCensus { allocas, non_escaped, def_block }
}

/// What a memory-writing instruction invalidates, under the refined alias
/// rules. `SlotKey::Value` slots that are non-escaped allocas are immune
/// to everything except a store through their own address and `free`.
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
    /// not just a data write, so no fact survives it).
    All,
}

fn kill_of<'a>(
    inst: &Inst,
    census: &AliasCensus,
    ipo: Option<&'a [crate::ipo::FuncSummary]>,
) -> Kill<'a> {
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
        // understate — but the ipo dataflow runs as a second pass after
        // the plain one, so stricter kills here can only decline to add
        // elisions, never undo cfg's.
        Inst::Call { callee, .. } => match ipo.map(|s| &s[callee.0 as usize]) {
            Some(s) if s.frees => Kill::All,
            Some(s) if s.writes_unknown => Kill::AllButNonEscaped,
            Some(s) if s.writes_globals.is_empty() => Kill::None,
            Some(s) => Kill::Globals(&s.writes_globals),
            None => Kill::AllButNonEscaped,
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

/// One block's transfer function: adjacent load+auth pairs generate facts,
/// memory writes kill them per the refined rules. When `rewrite` is set,
/// an auth whose fact is already available — and whose defining block
/// dominates this one — is replaced with a register copy. Returns the
/// number of auths elided.
///
/// With `forward` set (the ipo pass), facts are *also* seeded by
/// sign→store chains: a `Store` whose value is the result of a same-block
/// `PacSign` under `(key, modifier)` records that the slot now holds
/// exactly `sign(v)` — so a later load+auth of that slot under the same
/// class yields `v` and can be elided to a copy of the sign's input.
/// This is what makes call-boundary spill/reload chains (and every
/// `p = q; use *p` store-then-reload idiom) free: the auth after the
/// reload is the inverse of the sign before the store. Soundness is the
/// same narrowed re-check window as every other elision — corruption
/// landing in the slot between the store and the reload goes unverified
/// until the next non-elided check — and the kill rules guard everything
/// else: any intervening write that could alias the slot erases the fact.
#[allow(clippy::too_many_arguments)]
fn transfer_block(
    blk: &mut rsti_ir::BasicBlock,
    b: BlockId,
    facts: &mut FactMap,
    census: &AliasCensus,
    dom: &DomTree,
    ipo: Option<&[crate::ipo::FuncSummary]>,
    forward: bool,
    rewrite: bool,
) -> usize {
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
            match facts.get(&fk) {
                Some(&(prev, def_b)) if rewrite && dom.dominates(def_b, b) => {
                    blk.insts[i + 1].inst = Inst::BitCast {
                        result: auth_result,
                        value: prev.into(),
                        to: auth_result_ty_placeholder(),
                    };
                    elided += 1;
                }
                Some(_) => {} // analysis pass: fact already available
                None => {
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
        match kill_of(&blk.insts[i].inst, census, ipo) {
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

/// Stage 1 of the CFG pipeline: dominator-based redundant-auth
/// elimination. Forward "available authentications" dataflow over the CFG
/// (optimistic iteration to the greatest fixpoint, meet = intersection),
/// then a rewrite pass that replaces re-authentications whose fact arrives
/// on every path — and whose definition dominates the use, so the
/// authenticated register is live — with register copies.
///
/// Returns the number of auths elided. Leaves placeholder types for
/// [`patch_placeholder_types`].
pub fn elide_auths_dataflow(m: &mut Module) -> usize {
    elide_auths_dataflow_inner(m, None, false)
}

/// The interprocedural variant of [`elide_auths_dataflow`], run as the
/// second dataflow pass at [`OptLevel::Ipo`]: direct-call kill sets are
/// refined by the callee summaries, and facts are additionally seeded by
/// sign→store chains (see [`transfer_block`]). Because it runs after the
/// plain pass, everything it elides is elision the summaries or the
/// store-forwarding earned — the returned count is exactly the
/// interprocedural contribution.
pub fn elide_auths_dataflow_ipo(m: &mut Module, summaries: &[crate::ipo::FuncSummary]) -> usize {
    elide_auths_dataflow_inner(m, Some(summaries), true)
}

fn elide_auths_dataflow_inner(
    m: &mut Module,
    ipo: Option<&[crate::ipo::FuncSummary]>,
    forward: bool,
) -> usize {
    let mut elided = 0;
    for f in &mut m.funcs {
        if f.is_external || f.blocks.is_empty() {
            continue;
        }
        let cfg = Cfg::new(f);
        let dom = DomTree::new(&cfg);
        let census = alias_census(f);

        // Fixpoint: OUT[b] = transfer(meet(preds)). `None` = not yet
        // computed (⊤): back-edge predecessors start optimistic so facts
        // can circulate through loops, then shrink to the fixpoint.
        let mut out: Vec<Option<FactMap>> = vec![None; f.blocks.len()];
        loop {
            let mut changed = false;
            for &b in &cfg.rpo {
                let Some(mut facts) = meet_preds(&out, &cfg, b) else { continue };
                transfer_block(
                    &mut f.blocks[b.0 as usize],
                    b,
                    &mut facts,
                    &census,
                    &dom,
                    ipo,
                    forward,
                    false,
                );
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
        for &b in &cfg.rpo {
            let Some(mut facts) = meet_preds(&out, &cfg, b) else { continue };
            elided += transfer_block(
                &mut f.blocks[b.0 as usize],
                b,
                &mut facts,
                &census,
                &dom,
                ipo,
                forward,
                true,
            );
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

/// Stage 2 of the CFG pipeline: loop-invariant auth hoisting. A
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
/// Irreducible CFGs (never produced by structured MiniC, conceivable in
/// hand-built IR) make the loop forest bail out and the function is left
/// untouched. Returns the number of pairs hoisted.
pub fn hoist_loop_auths(m: &mut Module) -> usize {
    hoist_loop_auths_with(m, None)
}

/// [`hoist_loop_auths`] with optional interprocedural summaries: at
/// [`OptLevel::Ipo`] a loop body containing a call to a summarized-clean
/// callee no longer pins its header pairs in place.
pub fn hoist_loop_auths_with(
    m: &mut Module,
    ipo: Option<&[crate::ipo::FuncSummary]>,
) -> usize {
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
            while let Some(li) = find_hoistable_pair(f, l, &census, ipo) {
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
    ipo: Option<&[crate::ipo::FuncSummary]>,
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
                .all(|n| fact_survives(&slot, &kill_of(&n.inst, census, ipo), census))
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
    /// Auths elided by the per-block cache.
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
    fn remap_v(v: &mut ValueId, remap: &[u32]) {
        v.0 = remap[v.0 as usize];
    }
    fn remap_op(op: &mut Operand, remap: &[u32]) {
        if let Operand::Value(v) = op {
            remap_v(v, remap);
        }
    }
    fn remap_inst(inst: &mut Inst, remap: &[u32]) {
        match inst {
            Inst::Alloca { result, .. } => remap_v(result, remap),
            Inst::Load { result, ptr, .. } => {
                remap_v(result, remap);
                remap_op(ptr, remap);
            }
            Inst::Store { value, ptr } => {
                remap_op(value, remap);
                remap_op(ptr, remap);
            }
            Inst::FieldAddr { result, base, .. } => {
                remap_v(result, remap);
                remap_op(base, remap);
            }
            Inst::IndexAddr { result, base, index, .. } => {
                remap_v(result, remap);
                remap_op(base, remap);
                remap_op(index, remap);
            }
            Inst::BitCast { result, value, .. } | Inst::Convert { result, value, .. } => {
                remap_v(result, remap);
                remap_op(value, remap);
            }
            Inst::Bin { result, lhs, rhs, .. } | Inst::Cmp { result, lhs, rhs, .. } => {
                remap_v(result, remap);
                remap_op(lhs, remap);
                remap_op(rhs, remap);
            }
            Inst::Call { result, args, .. } => {
                if let Some(r) = result {
                    remap_v(r, remap);
                }
                for a in args {
                    remap_op(a, remap);
                }
            }
            Inst::CallIndirect { result, callee, args, .. } => {
                if let Some(r) = result {
                    remap_v(r, remap);
                }
                remap_op(callee, remap);
                for a in args {
                    remap_op(a, remap);
                }
            }
            Inst::Malloc { result, size, .. } => {
                remap_v(result, remap);
                remap_op(size, remap);
            }
            Inst::Free { ptr } => remap_op(ptr, remap),
            Inst::PrintInt { value } => remap_op(value, remap),
            Inst::PrintStr { .. } | Inst::PpAdd { .. } => {}
            Inst::PacSign { result, value, loc, .. }
            | Inst::PacAuth { result, value, loc, .. } => {
                remap_v(result, remap);
                remap_op(value, remap);
                if let Some(l) = loc {
                    remap_op(l, remap);
                }
            }
            Inst::PacStrip { result, value }
            | Inst::PpSign { result, value, .. }
            | Inst::PpAddTbi { result, value, .. }
            | Inst::PpAuth { result, value, .. } => {
                remap_v(result, remap);
                remap_op(value, remap);
            }
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
                let term_value = match &b.term {
                    Terminator::CondBr { cond: Operand::Value(v), .. } => Some(*v),
                    Terminator::Ret(Some(Operand::Value(v))) => Some(*v),
                    _ => None,
                };
                if let Some(v) = term_value {
                    if !mark(v) {
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
            remap_v(pv, &remap);
        }
        for b in &mut f.blocks {
            for node in &mut b.insts {
                remap_inst(&mut node.inst, &remap);
            }
            match &mut b.term {
                Terminator::CondBr { cond, .. } => remap_op(cond, &remap),
                Terminator::Ret(Some(op)) => remap_op(op, &remap),
                _ => {}
            }
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
    s.elided_block = elide_redundant_auths(m);
    patch_placeholder_types(m);
    verify_stage(m, "block-local");
    if matches!(level, OptLevel::Cfg | OptLevel::Ipo) {
        let ipo_env = (level == OptLevel::Ipo).then(|| crate::ipo::IpoAnalysis::build(m));
        let summaries = ipo_env.as_ref().map(|a| a.summaries.as_slice());
        s.hoisted = hoist_loop_auths_with(m, summaries);
        verify_stage(m, "hoist");
        s.elided_dom = elide_auths_dataflow(m);
        patch_placeholder_types(m);
        verify_stage(m, "dataflow");
        if let Some(a) = &ipo_env {
            s.elided_ipo = elide_auths_dataflow_ipo(m, &a.summaries);
            patch_placeholder_types(m);
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

/// Compatibility entry point: the full pipeline at [`OptLevel::Cfg`].
/// Returns the number of removed/promoted authentication sites.
pub fn optimize_program(p: &mut crate::instrument::InstrumentedProgram) -> usize {
    optimize_program_at(p, OptLevel::Cfg).total()
}

/// Compatibility entry point for *uninstrumented* modules: the full
/// pipeline at [`OptLevel::Cfg`], so overhead comparisons stay fair (both
/// sides get mem2reg and hoisting).
pub fn optimize_baseline(m: &mut Module) -> usize {
    optimize_module(m, OptLevel::Cfg).total()
}

/// Leaf-function inlining — the LTO/O2 component of the paper's pipeline
/// (§5: the pass runs in the LTO phase over the combined module, with the
/// runtime library inlined; §6.3.2 credits "LTO and -O2 optimizations"
/// for the gap to PARTS).
///
/// A callee qualifies when it is defined, is not the caller, contains no
/// calls of its own (leaf), and is at most `max_insts` instructions.
/// Every qualifying direct call site is replaced by a spliced copy of the
/// callee's body. Run **before** instrumentation, like LLVM's inliner runs
/// before the RSTI pass: argument-passing boundaries disappear, so STL has
/// nothing to re-sign there — exactly the effect O2 inlining has on the
/// paper's numbers.
///
/// Returns the number of call sites inlined.
pub fn inline_leaf_functions(m: &mut Module, max_insts: usize) -> usize {
    fn is_leaf(f: &rsti_ir::Function) -> bool {
        !f.is_external
            && !f.blocks.is_empty()
            && f.insts().all(|n| {
                !matches!(n.inst, Inst::Call { .. } | Inst::CallIndirect { .. })
            })
    }

    let leafs: Vec<bool> = m.funcs.iter().map(is_leaf).collect();
    let sizes: Vec<usize> = m.funcs.iter().map(|f| f.inst_count()).collect();
    let mut inlined = 0usize;

    for caller_idx in 0..m.funcs.len() {
        if m.funcs[caller_idx].is_external {
            continue;
        }
        // Find one inlinable call site at a time; repeat until none left
        // (inlined leaf bodies introduce no new calls).
        loop {
            let site = {
                let f = &m.funcs[caller_idx];
                let mut found = None;
                'scan: for (bi, blk) in f.blocks.iter().enumerate() {
                    for (ii, node) in blk.insts.iter().enumerate() {
                        if let Inst::Call { callee, .. } = &node.inst {
                            let ci = callee.0 as usize;
                            if ci != caller_idx && leafs[ci] && sizes[ci] <= max_insts {
                                found = Some((bi, ii));
                                break 'scan;
                            }
                        }
                    }
                }
                found
            };
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

/// Replaces the direct call at `(caller_idx, bi, ii)` with a spliced copy
/// of the callee's body. Shared by the pre-instrumentation leaf inliner
/// and the post-instrumentation ipo inliner; the callee may itself contain
/// calls ([`remap_inst`] remaps them like any other instruction).
pub(crate) fn splice_call_site(m: &mut Module, caller_idx: usize, bi: usize, ii: usize) {
    use rsti_ir::{BasicBlock, Terminator};

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
    let mut param_map: std::collections::HashMap<ValueId, Operand> =
        std::collections::HashMap::new();
    for (i, (pv, _)) in callee.params.iter().enumerate() {
        param_map.insert(*pv, args[i].clone());
    }
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
    for cblk in &callee.blocks {
        let mut nb = BasicBlock::new();
        for node in &cblk.insts {
            let mut inst = node.inst.clone();
            remap_inst(&mut inst, value_base, &param_map);
            nb.insts.push(InstNode { inst, loc: node.loc });
        }
        nb.term_loc = cblk.term_loc;
        nb.term = match &cblk.term {
            Terminator::Br(b) => Terminator::Br(BlockId(block_base + b.0)),
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let mut c = cond.clone();
                remap_operand(&mut c, value_base, &param_map);
                Terminator::CondBr {
                    cond: c,
                    then_bb: BlockId(block_base + then_bb.0),
                    else_bb: BlockId(block_base + else_bb.0),
                }
            }
            Terminator::Ret(v) => {
                if let (Some(res), Some(v)) = (result, v) {
                    let mut rv = v.clone();
                    remap_operand(&mut rv, value_base, &param_map);
                    let copy = if m.types.is_ptr(ret_ty) {
                        Inst::BitCast { result: res, value: rv, to: ret_ty }
                    } else {
                        Inst::Convert { result: res, value: rv, to: ret_ty }
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

fn remap_operand(
    op: &mut Operand,
    value_base: u32,
    param_map: &std::collections::HashMap<ValueId, Operand>,
) {
    if let Operand::Value(v) = op {
        if let Some(repl) = param_map.get(v) {
            *op = repl.clone();
        } else {
            *op = Operand::Value(ValueId(value_base + v.0));
        }
    }
}

fn remap_inst(
    inst: &mut Inst,
    value_base: u32,
    param_map: &std::collections::HashMap<ValueId, Operand>,
) {
    // Results always become fresh caller values (params are never results).
    let remap_result = |r: &mut ValueId| *r = ValueId(value_base + r.0);
    match inst {
        Inst::Alloca { result, .. } => remap_result(result),
        Inst::Load { result, ptr, .. } => {
            remap_result(result);
            remap_operand(ptr, value_base, param_map);
        }
        Inst::Store { value, ptr } => {
            remap_operand(value, value_base, param_map);
            remap_operand(ptr, value_base, param_map);
        }
        Inst::FieldAddr { result, base, .. } => {
            remap_result(result);
            remap_operand(base, value_base, param_map);
        }
        Inst::IndexAddr { result, base, index, .. } => {
            remap_result(result);
            remap_operand(base, value_base, param_map);
            remap_operand(index, value_base, param_map);
        }
        Inst::BitCast { result, value, .. } | Inst::Convert { result, value, .. } => {
            remap_result(result);
            remap_operand(value, value_base, param_map);
        }
        Inst::Bin { result, lhs, rhs, .. } => {
            remap_result(result);
            remap_operand(lhs, value_base, param_map);
            remap_operand(rhs, value_base, param_map);
        }
        Inst::Cmp { result, lhs, rhs, .. } => {
            remap_result(result);
            remap_operand(lhs, value_base, param_map);
            remap_operand(rhs, value_base, param_map);
        }
        Inst::Malloc { result, size, .. } => {
            remap_result(result);
            remap_operand(size, value_base, param_map);
        }
        Inst::Free { ptr } => remap_operand(ptr, value_base, param_map),
        Inst::PrintInt { value } => remap_operand(value, value_base, param_map),
        Inst::PrintStr { .. } | Inst::PpAdd { .. } => {}
        Inst::PacSign { result, value, loc, .. } | Inst::PacAuth { result, value, loc, .. } => {
            remap_result(result);
            remap_operand(value, value_base, param_map);
            if let Some(l) = loc {
                remap_operand(l, value_base, param_map);
            }
        }
        Inst::PacStrip { result, value }
        | Inst::PpSign { result, value, .. }
        | Inst::PpAddTbi { result, value, .. }
        | Inst::PpAuth { result, value, .. } => {
            remap_result(result);
            remap_operand(value, value_base, param_map);
        }
        // Callees with calls of their own (the ipo inliner's candidates):
        // `FuncId`s are module-level and survive the splice untouched.
        Inst::Call { result, args, .. } => {
            if let Some(r) = result {
                remap_result(r);
            }
            for a in args {
                remap_operand(a, value_base, param_map);
            }
        }
        Inst::CallIndirect { result, callee, args, .. } => {
            if let Some(r) = result {
                remap_result(r);
            }
            remap_operand(callee, value_base, param_map);
            for a in args {
                remap_operand(a, value_base, param_map);
            }
        }
    }
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
        let elided = optimize_program(&mut p);
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
        optimize_program(&mut p);
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
