//! Scope-Type Integrity analysis: collecting the programmer's-intent facts
//! and building RSTI-types for each defense mechanism.
//!
//! The pipeline is (paper §4.4–4.8):
//!
//! 1. **Fact collection** — every pointer-typed storage unit (local, param,
//!    global, struct field, or anonymous through-pointer storage) becomes a
//!    [`PointerVar`] carrying its basic type, declaration scope, and
//!    permission, straight from the frontend's debug metadata.
//! 2. **Flow graph** — undirected edges connect variables whose values flow
//!    into one another (stores and argument passing), each edge tagged with
//!    whether a pointer cast lies on the path. This stands in for the
//!    paper's whole-program LTO view (§5).
//! 3. **Scope widening** — a variable that escapes (its value reaches a
//!    same-typed variable elsewhere) has its scope widened to the functions
//!    its value travels through, reproducing the paper's escaping-variable
//!    rule (§4.5) and the Figure 5a table exactly.
//! 4. **RSTI-type construction** per mechanism (§4.6, §4.8):
//!    * **STWC** groups variables by (type, scope set, permission);
//!    * **STC** additionally merges groups connected by casts (compatible
//!      types);
//!    * **STL** gives every variable its own RSTI-type and mixes the
//!      pointer's location into the modifier at runtime;
//!    * **PARTS** (baseline, Liljestrand et al.) groups by basic type
//!      alone.

use crate::storage::{operand_type, root_of_value, storage_of_addr, DefMap, StorageKey};
use rsti_ir::{Inst, Module, Scope, Type, TypeId, VarKind};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::{self, Write};
use std::ops::Range;

/// The RSTI enforcement mechanisms (plus the PARTS baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Scope-Type Without Combining — the paper's primary mechanism.
    Stwc,
    /// Scope-Type with Combining — compatible (cast-related) types merged.
    Stc,
    /// Scope-Type with Location — strictest; modifier mixes `&p`.
    Stl,
    /// The PARTS baseline: modifier is the basic pointer type only.
    Parts,
}

impl Mechanism {
    /// All mechanisms, in the order the paper reports them.
    pub const ALL: [Mechanism; 4] =
        [Mechanism::Stwc, Mechanism::Stc, Mechanism::Stl, Mechanism::Parts];

    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Stwc => "RSTI-STWC",
            Mechanism::Stc => "RSTI-STC",
            Mechanism::Stl => "RSTI-STL",
            Mechanism::Parts => "PARTS",
        }
    }

    /// Short lowercase label (`stwc`, `stc`, `stl`, `parts`), as the CLI
    /// and `serve` accept it.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::Stwc => "stwc",
            Mechanism::Stc => "stc",
            Mechanism::Stl => "stl",
            Mechanism::Parts => "parts",
        }
    }

    /// Whether the runtime modifier mixes the pointer's location.
    pub fn uses_location(&self) -> bool {
        matches!(self, Mechanism::Stl)
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One pointer-typed storage unit and its programmer's-intent facts.
#[derive(Debug, Clone)]
pub struct PointerVar {
    /// Identity.
    pub key: StorageKey,
    /// Declared basic type.
    pub ty: TypeId,
    /// Permission: `true` unless declared `const`.
    pub writable: bool,
    /// Declaration scope (`None` for anonymous storage).
    pub decl_scope: Option<Scope>,
    /// Where [`StiFacts::scopes`] keeps this variable's scope set.
    scopes: Range<u32>,
    /// Report name.
    pub name: String,
    /// Whether the stored pointer is a code (function) pointer.
    pub is_code_ptr: bool,
}

/// A flow edge between two pointer variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEdge {
    /// Endpoint variable indices (into [`StiFacts::vars`]).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Whether a pointer cast lies on the value path.
    pub casted: bool,
}

/// The collected STI facts for a module.
#[derive(Debug, Clone)]
pub struct StiFacts {
    /// All pointer variables.
    pub vars: Vec<PointerVar>,
    /// Key → index into `vars`.
    pub index: HashMap<StorageKey, usize>,
    /// Variable flow edges.
    pub edges: Vec<FlowEdge>,
    /// Pairs of variables that MUST share a class under every mechanism:
    /// an address-escaped variable and its type's anonymous storage. Once
    /// `&p` escapes, `p`'s slot is reachable through plain pointers, so
    /// accesses through aliases can only be checked against the type-level
    /// class — the same constraint the LLVM prototype faces.
    pub forced_unions: Vec<(usize, usize)>,
    /// Every variable's scope set, one sorted run per variable.
    scopes: Vec<Scope>,
}

impl StiFacts {
    /// Index of a key, if it denotes pointer storage.
    pub fn var_of(&self, key: StorageKey) -> Option<usize> {
        self.index.get(&key).copied()
    }

    /// Variable `vi`'s widened scope set (decl + use + escape widening),
    /// sorted — the STI scope.
    pub fn scopes(&self, vi: usize) -> &[Scope] {
        run(&self.scopes, &self.vars[vi].scopes)
    }
}

/// An RSTI-type: an equivalence class of pointer variables sharing one PAC
/// modifier. Its sets live in the [`StiAnalysis`] that holds it
/// ([`StiAnalysis::members`], [`StiAnalysis::types`],
/// [`StiAnalysis::scopes`]).
#[derive(Debug, Clone)]
pub struct RstiClass {
    /// Permission.
    pub writable: bool,
    /// The 64-bit PAC modifier derived from the class facts.
    pub modifier: u64,
    /// Whether members hold code pointers (selects the `Ia` key).
    pub code_ptr: bool,
    members: Range<u32>,
    types: Range<u32>,
    scopes: Range<u32>,
}

/// The full analysis result for one mechanism.
#[derive(Debug, Clone)]
pub struct StiAnalysis {
    /// Mechanism analyzed for.
    pub mechanism: Mechanism,
    /// The classes (RSTI-types).
    pub classes: Vec<RstiClass>,
    /// Variable index → class index.
    pub class_of_var: Vec<usize>,
    /// The underlying facts.
    pub facts: StiFacts,
    /// Every class's members, types and scopes, one run per class.
    members: Vec<usize>,
    types: Vec<TypeId>,
    scopes: Vec<Scope>,
}

/// The run `r` of a flat table.
fn run<'a, T>(all: &'a [T], r: &Range<u32>) -> &'a [T] {
    &all[r.start as usize..r.end as usize]
}

impl StiAnalysis {
    /// The class a storage key belongs to, if it is pointer storage.
    pub fn class_of(&self, key: StorageKey) -> Option<&RstiClass> {
        let vi = self.facts.var_of(key)?;
        Some(&self.classes[self.class_of_var[vi]])
    }

    /// The modifier for a storage key (pointer storage only).
    pub fn modifier_of(&self, key: StorageKey) -> Option<u64> {
        self.class_of(key).map(|c| c.modifier)
    }

    /// A class's member variable indices (into [`StiFacts::vars`]).
    pub fn members(&self, c: &RstiClass) -> &[usize] {
        run(&self.members, &c.members)
    }

    /// A class's basic types, sorted (a singleton except under STC).
    pub fn types(&self, c: &RstiClass) -> &[TypeId] {
        run(&self.types, &c.types)
    }

    /// A class's STI scope set, sorted.
    pub fn scopes(&self, c: &RstiClass) -> &[Scope] {
        run(&self.scopes, &c.scopes)
    }
}

/// FNV-1a, the stable hash behind modifiers (the paper uses internal LLVM
/// type ids; any deterministic injection into 64 bits serves).
/// FNV-1a's byte loop from another starting state: the instrumentation's
/// fallback modifiers and the pointer-to-pointer FE modifiers hash a
/// type's spelling from their own seeds.
pub(crate) fn fnv1a_from(seed: u64, data: &[u8]) -> u64 {
    data.iter().fold(seed, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// FNV-1a over everything written to it, from a seed: modifiers hash the
/// spelling of their facts without building it.
pub(crate) struct Fnv(pub(crate) u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_from(self.0, s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of a type's [`rsti_ir::TypeTable::display`] spelling, from `seed`.
pub(crate) fn fnv1a_type(m: &Module, seed: u64, ty: TypeId) -> u64 {
    let mut h = Fnv(seed);
    let _ = m.types.write_display(ty, &mut h);
    h.0
}

fn write_scope_name(m: &Module, s: Scope, w: &mut impl Write) -> fmt::Result {
    match s {
        Scope::Function(i) => w.write_str(&m.funcs[i as usize].name),
        Scope::Struct(sid) => write!(w, "struct {}", m.types.struct_def(sid).name),
        Scope::Module => w.write_str("<module>"),
        Scope::External => w.write_str("<external>"),
    }
}

/// What [`collect_facts`] builds the facts with: the facts so far, the
/// edges and unions already recorded (so each is recorded once, in
/// first-insertion order, in constant time), and every (variable, scope)
/// use seen.
struct Collect {
    facts: StiFacts,
    edge_seen: HashSet<(usize, usize, bool)>,
    union_seen: HashSet<(usize, usize)>,
    uses: Vec<(u32, Scope)>,
}

impl Collect {
    fn add_var(
        &mut self,
        key: StorageKey,
        ty: TypeId,
        writable: bool,
        decl: Option<Scope>,
        name: String,
        code: bool,
    ) {
        if self.facts.index.contains_key(&key) {
            return;
        }
        let idx = self.facts.vars.len();
        self.facts.index.insert(key, idx);
        self.facts.vars.push(PointerVar {
            key,
            ty,
            writable,
            decl_scope: decl,
            scopes: 0..0,
            name,
            is_code_ptr: code,
        });
    }

    /// Records a use of `key`'s storage in `scope`, first creating the
    /// anonymous variable of a `TypeOf` key.
    fn touch(&mut self, m: &Module, key: StorageKey, ty: TypeId, scope: Scope) {
        if !self.facts.index.contains_key(&key) {
            let StorageKey::TypeOf(t) = key else {
                return;
            };
            let mut name = String::from("<*");
            let _ = m.types.write_display(t, &mut name);
            name.push('>');
            self.add_var(key, ty, true, None, name, m.types.is_func_ptr(ty));
        }
        if let Some(&i) = self.facts.index.get(&key) {
            self.uses.push((i as u32, scope));
        }
    }

    /// Records a flow edge between two pointer variables, once per
    /// (unordered pair, `casted`).
    fn add_edge(&mut self, a: StorageKey, b: StorageKey, casted: bool) {
        let (Some(&ai), Some(&bi)) = (self.facts.index.get(&a), self.facts.index.get(&b)) else {
            return;
        };
        if ai != bi && self.edge_seen.insert((ai.min(bi), ai.max(bi), casted)) {
            self.facts.edges.push(FlowEdge { a: ai, b: bi, casted });
        }
    }

    /// Records that `a`'s and `b`'s classes must merge, once per pair.
    fn force_union(&mut self, a: usize, b: usize) {
        if a != b && self.union_seen.insert((a, b)) {
            self.facts.forced_unions.push((a, b));
        }
    }
}

/// Collects pointer variables and the flow graph for a module.
pub fn collect_facts(m: &Module) -> StiFacts {
    let defs: Vec<DefMap<'_>> = m.funcs.iter().map(DefMap::new).collect();
    collect_facts_with(m, &defs)
}

/// [`collect_facts`] over the module's def tables, one per function.
pub(crate) fn collect_facts_with(m: &Module, defs: &[DefMap<'_>]) -> StiFacts {
    let _span = rsti_telemetry::global().span(rsti_telemetry::Phase::CollectFacts);
    let mut c = Collect {
        facts: StiFacts {
            vars: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
            forced_unions: Vec::new(),
            scopes: Vec::new(),
        },
        edge_seen: HashSet::new(),
        union_seen: HashSet::new(),
        uses: Vec::new(),
    };

    // Named variables (locals, params, globals) with pointer types.
    for (i, v) in m.vars.iter().enumerate() {
        if m.types.is_ptr(v.ty) && v.kind != VarKind::Field {
            c.add_var(
                StorageKey::Var(rsti_ir::VarId(i as u32)),
                v.ty,
                !v.is_const,
                Some(v.scope),
                v.name.clone(),
                m.types.is_func_ptr(v.ty),
            );
        }
    }
    // Struct fields with pointer types: scope includes the composite type
    // itself (§4.7.4).
    for (sid, def) in m.types.structs() {
        for (fi, fd) in def.fields.iter().enumerate() {
            if m.types.is_ptr(fd.ty) {
                c.add_var(
                    StorageKey::Field(sid, fi as u32),
                    fd.ty,
                    !fd.is_const,
                    Some(Scope::Struct(sid)),
                    format!("{}.{}", def.name, fd.name),
                    m.types.is_func_ptr(fd.ty),
                );
            }
        }
    }

    // Walk bodies: record use scopes, anonymous storage, and flow edges.
    for (fid, f) in m.funcs() {
        if f.is_external {
            continue;
        }
        let fscope = Scope::Function(fid.0);
        let defs = &defs[fid.0 as usize];
        for node in f.insts() {
            let scope = node.loc.map(|l| l.scope).unwrap_or(fscope);
            match &node.inst {
                Inst::Store { value, ptr } => {
                    let vty = operand_type(m, f, value);
                    if !m.types.is_ptr(vty) {
                        continue;
                    }
                    let dst = storage_of_addr(m, f, defs, ptr);
                    c.touch(m, dst, vty, scope);
                    let root = root_of_value(m, f, defs, value);
                    if let Some(src) = root.key {
                        c.touch(m, src, root.root_ty.unwrap_or(vty), scope);
                        c.add_edge(src, dst, root.casted);
                        if root.is_address {
                            address_escape(m, &mut c, root, vty, scope);
                        }
                    }
                }
                Inst::Load { ptr, ty, .. } => {
                    if !m.types.is_ptr(*ty) {
                        continue;
                    }
                    let key = storage_of_addr(m, f, defs, ptr);
                    c.touch(m, key, *ty, scope);
                }
                Inst::Call { callee, args, .. } => {
                    let callee_f = m.func(*callee);
                    if callee_f.is_external {
                        continue;
                    }
                    for (i, a) in args.iter().enumerate() {
                        let aty = operand_type(m, f, a);
                        if !m.types.is_ptr(aty) {
                            continue;
                        }
                        let Some((_, Some(pvar))) = callee_f.params.get(i) else {
                            continue;
                        };
                        let dst = StorageKey::Var(*pvar);
                        let root = root_of_value(m, f, defs, a);
                        if let Some(src) = root.key {
                            c.add_edge(src, dst, root.casted);
                            if root.is_address {
                                address_escape(m, &mut c, root, aty, scope);
                            }
                            // Lost-type double-pointer site (§4.7.7): the
                            // callee will access the inner pointer through
                            // its own (universal) view, so the two content
                            // classes must be compatible in every
                            // mechanism. The double pointer itself is
                            // protected separately by the CE/FE runtime.
                            let orig_ty = root.root_ty.unwrap_or(aty);
                            if root.casted
                                && orig_ty != aty
                                && m.types.ptr_depth(orig_ty) >= 2
                                && m.types.ptr_depth(aty) >= 2
                            {
                                let oc = m.types.pointee(orig_ty).expect("depth>=2");
                                let ac = m.types.pointee(aty).expect("depth>=2");
                                let (ka, kb) =
                                    (StorageKey::TypeOf(oc), StorageKey::TypeOf(ac));
                                c.touch(m, ka, oc, scope);
                                c.touch(m, kb, ac, scope);
                                if let (Some(&ia), Some(&ib)) =
                                    (c.facts.index.get(&ka), c.facts.index.get(&kb))
                                {
                                    c.force_union(ia, ib);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Scope computation: decl ∪ use, then same-type escape widening.
    let mut pairs = c.uses;
    for (i, v) in c.facts.vars.iter().enumerate() {
        if let Some(d) = v.decl_scope {
            pairs.push((i as u32, d));
        }
    }
    widen_scopes(&c.facts, &mut pairs);
    pairs.sort_unstable();
    pairs.dedup();
    let mut facts = c.facts;
    facts.scopes = pairs.iter().map(|&(_, s)| s).collect();
    let mut at = 0usize;
    for (i, v) in facts.vars.iter_mut().enumerate() {
        let start = at;
        while at < pairs.len() && pairs[at].0 == i as u32 {
            at += 1;
        }
        v.scopes = start as u32..at as u32;
    }
    facts
}

/// Handles an escaping address-of: the pointed-to storage becomes
/// reachable anonymously, so it must share a class with `TypeOf(content)`
/// — and, when the address escaped through a cast (`(void**)&p`), with the
/// content type of the *viewed* pointer too, since consumers will load
/// through that view (§4.7.7's lost-type aliasing, whether the consumer is
/// a callee or — after inlining — the very same function).
fn address_escape(
    m: &Module,
    c: &mut Collect,
    root: crate::storage::ValueRoot,
    viewed_ty: TypeId,
    scope: Scope,
) {
    let (Some(key), Some(addr_ty)) = (root.key, root.root_ty) else {
        return;
    };
    let Some(content) = m.types.pointee(addr_ty) else {
        return;
    };
    if !m.types.is_ptr(content) {
        return; // only pointer-holding storage matters to STI
    }
    let union_with = |c: &mut Collect, anon_ty: TypeId| {
        let anon = StorageKey::TypeOf(anon_ty);
        c.touch(m, anon, anon_ty, scope);
        let (Some(&a), Some(&b)) = (c.facts.index.get(&key), c.facts.index.get(&anon)) else {
            return;
        };
        c.force_union(a, b);
        c.add_edge(key, anon, false);
    };
    union_with(c, content);
    // Cast view: `(T2**) &p` makes `p`'s slot readable as T2*.
    if root.casted {
        if let Some(viewed_content) = m.types.pointee(viewed_ty) {
            if m.types.is_ptr(viewed_content) && viewed_content != content {
                union_with(c, viewed_content);
            }
        }
    }
}

/// Escape widening: when a variable's value flows (possibly through casts
/// and intermediate variables) to *another variable of the same basic
/// type*, both — and the intermediaries — belong to the same dynamic
/// extent, so each same-typed variable's scope widens to the declaration
/// scopes of the whole flow component. A type with only one variable in the
/// component keeps its narrow scope. This reproduces the paper's Figure 5a
/// table: `ctx*` pointers get scope {main, foo, bar, foo2}, while the lone
/// `void*` parameter keeps scope {foo2}.
fn widen_scopes(facts: &StiFacts, pairs: &mut Vec<(u32, Scope)>) {
    let n = facts.vars.len();
    let mut uf = UnionFind::new(n);
    for e in &facts.edges {
        uf.union(e.a, e.b);
    }
    // (component, decl scope) of every member, sorted: each component's
    // decl scopes are one run.
    let comp: Vec<u32> = (0..n).map(|i| uf.find(i) as u32).collect();
    let mut comp_scopes: Vec<(u32, Scope)> = (facts.vars.iter().zip(&comp))
        .filter_map(|(v, &c)| Some((c, v.decl_scope?)))
        .collect();
    comp_scopes.sort_unstable();
    comp_scopes.dedup();
    let mut comp_type_count: HashMap<(u32, TypeId), usize> = HashMap::new();
    for (v, &c) in facts.vars.iter().zip(&comp) {
        *comp_type_count.entry((c, v.ty)).or_insert(0) += 1;
    }
    for (i, (v, &c)) in facts.vars.iter().zip(&comp).enumerate() {
        if comp_type_count[&(c, v.ty)] >= 2 {
            let lo = comp_scopes.partition_point(|&(k, _)| k < c);
            let hi = comp_scopes.partition_point(|&(k, _)| k <= c);
            pairs.extend(comp_scopes[lo..hi].iter().map(|&(_, s)| (i as u32, s)));
        }
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Runs the full analysis for a mechanism.
pub fn analyze(m: &Module, mechanism: Mechanism) -> StiAnalysis {
    let defs: Vec<DefMap<'_>> = m.funcs.iter().map(DefMap::new).collect();
    analyze_with(m, &defs, mechanism)
}

/// [`analyze`] over the module's def tables, one per function.
pub(crate) fn analyze_with(m: &Module, defs: &[DefMap<'_>], mechanism: Mechanism) -> StiAnalysis {
    let facts = collect_facts_with(m, defs);
    let tel = rsti_telemetry::global();
    let _span = tel.span(rsti_telemetry::Phase::Analyze);
    let a = build_classes(m, facts, mechanism);
    use rsti_telemetry::CounterId;
    let id = match mechanism {
        Mechanism::Stwc => CounterId::ClassesStwc,
        Mechanism::Stc => CounterId::ClassesStc,
        Mechanism::Stl => CounterId::ClassesStl,
        Mechanism::Parts => CounterId::ClassesParts,
    };
    tel.add(id, a.classes.len() as u64);
    a
}

fn build_classes(m: &Module, facts: StiFacts, mechanism: Mechanism) -> StiAnalysis {
    let n = facts.vars.len();
    // Each variable's group, numbered in order of first member.
    let mut groups = 0u32;
    let mut fresh = || {
        groups += 1;
        groups - 1
    };
    let group: Vec<u32> = match mechanism {
        // One class per variable.
        Mechanism::Stl => (0..n).map(|_| fresh()).collect(),
        Mechanism::Parts => {
            // Basic type only.
            let mut by_ty: HashMap<TypeId, u32> = HashMap::new();
            (facts.vars.iter())
                .map(|v| *by_ty.entry(v.ty).or_insert_with(&mut fresh))
                .collect()
        }
        Mechanism::Stwc | Mechanism::Stc => {
            // Group by (type, scope set, permission).
            let mut by_key: HashMap<(TypeId, &[Scope], bool), u32> = HashMap::new();
            (facts.vars.iter().enumerate())
                .map(|(i, v)| {
                    let key = (v.ty, facts.scopes(i), v.writable);
                    *by_key.entry(key).or_insert_with(&mut fresh)
                })
                .collect()
        }
    };

    // Cross-class merges: STC combines cast-compatible classes; every
    // mechanism honours the forced (address-escape) unions. Merged classes
    // are numbered in order of their first group.
    let casted = (facts.edges.iter())
        .filter(|e| mechanism == Mechanism::Stc && e.casted)
        .map(|e| (e.a, e.b));
    let mut pairs = facts.forced_unions.iter().copied().chain(casted).peekable();
    let mut class_of_group: Vec<u32> = (0..groups).collect();
    let mut classes_n = groups;
    if pairs.peek().is_some() {
        let mut uf = UnionFind::new(groups as usize);
        for (a, b) in pairs {
            uf.union(group[a] as usize, group[b] as usize);
        }
        let mut class_of_root = vec![u32::MAX; groups as usize];
        classes_n = 0;
        for (gi, c) in class_of_group.iter_mut().enumerate() {
            let root = &mut class_of_root[uf.find(gi)];
            if *root == u32::MAX {
                *root = classes_n;
                classes_n += 1;
            }
            *c = *root;
        }
    }
    let class_of_var: Vec<usize> = group.iter().map(|&g| class_of_group[g as usize] as usize).collect();
    // Members by class, then group, then index.
    let mut members: Vec<usize> = (0..n).collect();
    members.sort_by_key(|&v| (class_of_var[v], group[v]));

    // Materialize classes with modifiers.
    let mut classes = Vec::with_capacity(classes_n as usize);
    let (mut types, mut scopes) = (Vec::new(), Vec::new());
    let mut at = 0usize;
    while at < n {
        let ci = class_of_var[members[at]];
        let start = at;
        while at < n && class_of_var[members[at]] == ci {
            at += 1;
        }
        let g = &members[start..at];
        let (t0, s0) = (types.len(), scopes.len());
        let mut writable = false;
        let mut code_ptr = false;
        for &vi in g {
            let v = &facts.vars[vi];
            types.push(v.ty);
            scopes.extend_from_slice(facts.scopes(vi));
            writable |= v.writable;
            code_ptr |= v.is_code_ptr;
        }
        sort_dedup_tail(&mut types, t0);
        sort_dedup_tail(&mut scopes, s0);
        let mut desc = Fnv(0xcbf29ce484222325);
        let _ = write!(desc, "{mechanism}|");
        for &t in &types[t0..] {
            let _ = m.types.write_display(t, &mut desc);
            let _ = desc.write_char(';');
        }
        let _ = desc.write_char('|');
        // PARTS ignores scope and permission in the modifier.
        if mechanism != Mechanism::Parts {
            for &s in &scopes[s0..] {
                let _ = write_scope_name(m, s, &mut desc);
                let _ = desc.write_char(';');
            }
            let _ = desc.write_char('|');
            let _ = desc.write_char(if writable { 'W' } else { 'R' });
        }
        // STL keys each variable separately: two same-fact variables must
        // not share even the static part of the modifier (the location is
        // mixed in on top at runtime).
        if mechanism == Mechanism::Stl {
            for &vi in g {
                let _ = write!(desc, "|{}#{vi}", facts.vars[vi].name);
            }
        }
        let span = |a: usize, b: usize| a as u32..b as u32;
        classes.push(RstiClass {
            writable,
            modifier: desc.0,
            code_ptr,
            members: span(start, at),
            types: span(t0, types.len()),
            scopes: span(s0, scopes.len()),
        });
    }

    StiAnalysis { mechanism, classes, class_of_var, facts, members, types, scopes }
}

/// Sorts `v[start..]` and drops its duplicates.
fn sort_dedup_tail<T: Ord + Copy>(v: &mut Vec<T>, start: usize) {
    v[start..].sort_unstable();
    let mut keep = start;
    for i in start..v.len() {
        if keep == start || v[i] != v[keep - 1] {
            v[keep] = v[i];
            keep += 1;
        }
    }
    v.truncate(keep);
}

/// Count of distinct *basic pointer types* among a module's pointer
/// variables — the "NT" column of Table 3.
pub fn basic_type_count(facts: &StiFacts) -> usize {
    facts.vars.iter().map(|v| v.ty).collect::<BTreeSet<_>>().len()
}

/// Whether a type is a "universal pointer" (`void*` / `char*`), treated
/// like any other type by RSTI (§4.7.3) but interesting to report.
pub fn is_universal_ptr(m: &Module, ty: TypeId) -> bool {
    match m.types.get(ty) {
        Type::Ptr(p) => matches!(m.types.get(*p), Type::Void | Type::I8),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_frontend::compile;

    /// The paper's Figure 5 program, in MiniC.
    const FIG5: &str = r#"
        struct ctx { void (*send_file)(int x); };
        void foo(struct ctx* c) { }
        void bar(struct ctx* c) { }
        void foo2(void* v_ctx) {
            foo((struct ctx*) v_ctx);
            bar((struct ctx*) v_ctx);
        }
        int main() {
            struct ctx* c = (struct ctx*) malloc(sizeof(struct ctx));
            const void* v_const = malloc(1);
            foo2((void*) c);
            return 0;
        }
    "#;

    fn names(m: &Module, facts: &StiFacts, idxs: &[usize]) -> Vec<String> {
        let mut v: Vec<String> = idxs.iter().map(|&i| facts.vars[i].name.clone()).collect();
        v.sort();
        let _ = m;
        v
    }

    fn scope_names(m: &Module, scopes: &[Scope]) -> BTreeSet<String> {
        (scopes.iter())
            .map(|&s| {
                let mut name = String::new();
                write_scope_name(m, s, &mut name).unwrap();
                name
            })
            .collect()
    }

    #[test]
    fn fig5a_stwc_builds_three_named_classes() {
        let m = compile(FIG5, "fig5").unwrap();
        let a = analyze(&m, Mechanism::Stwc);
        // Classes containing the named variables from the paper's table.
        let c_cls = a.class_of(key_of(&a, "c")).unwrap();
        let vctx_cls = a.class_of(key_of(&a, "v_ctx")).unwrap();
        let vconst_cls = a.class_of(key_of(&a, "v_const")).unwrap();

        // M1: ctx* with scope {main, foo, bar, foo2}, R/W.
        assert_eq!(a.types(c_cls).len(), 1);
        assert_eq!(m.types.display(a.types(c_cls)[0]), "struct ctx*");
        assert_eq!(
            scope_names(&m, a.scopes(c_cls)),
            ["main", "foo", "bar", "foo2"].iter().map(|s| s.to_string()).collect()
        );
        assert!(c_cls.writable);
        // The two ctx* params of foo and bar share M1 with c.
        assert!(names(&m, &a.facts, a.members(c_cls)).contains(&"c".to_string()));
        assert!(
            a.members(c_cls).len() >= 3,
            "c plus the foo/bar params: {:?}",
            names(&m, &a.facts, a.members(c_cls))
        );

        // M2: void* with scope {foo2}, R/W.
        assert_eq!(scope_names(&m, a.scopes(vctx_cls)), ["foo2".to_string()].into());
        assert!(vctx_cls.writable);

        // M3: void* with scope {main}, read-only.
        assert_eq!(scope_names(&m, a.scopes(vconst_cls)), ["main".to_string()].into());
        assert!(!vconst_cls.writable);

        // Three distinct modifiers.
        let mods = [c_cls.modifier, vctx_cls.modifier, vconst_cls.modifier];
        assert_eq!(mods.iter().collect::<BTreeSet<_>>().len(), 3);
    }

    #[test]
    fn fig5b_stc_merges_cast_compatible_types() {
        let m = compile(FIG5, "fig5").unwrap();
        let a = analyze(&m, Mechanism::Stc);
        let c_cls = a.class_of(key_of(&a, "c")).unwrap();
        let vctx_cls = a.class_of(key_of(&a, "v_ctx")).unwrap();
        let vconst_cls = a.class_of(key_of(&a, "v_const")).unwrap();
        // ctx* and void* combined into one RSTI-type...
        assert_eq!(c_cls.modifier, vctx_cls.modifier);
        let tys: BTreeSet<String> =
            a.types(c_cls).iter().map(|t| m.types.display(*t)).collect();
        assert!(tys.contains("struct ctx*") && tys.contains("void*"));
        // ...but the const void* stays separate (M2 in Figure 5b).
        assert_ne!(c_cls.modifier, vconst_cls.modifier);
    }

    #[test]
    fn fig5c_stl_gives_every_variable_its_own_class() {
        let m = compile(FIG5, "fig5").unwrap();
        let a = analyze(&m, Mechanism::Stl);
        for cls in &a.classes {
            assert_eq!(a.members(cls).len(), 1, "STL classes are singletons");
        }
        // c, v_ctx, v_const, foo's c, bar's c all distinct (paper's M1–M5,
        // modulo the struct field and anonymous storage also present).
        let keys = ["c", "v_ctx", "v_const"];
        let mods: BTreeSet<u64> = keys
            .iter()
            .map(|n| a.modifier_of(key_of(&a, n)).unwrap())
            .collect();
        assert_eq!(mods.len(), 3);
    }

    #[test]
    fn fig8_merging_table() {
        let src = r#"
            void foo() {
                void* p1;
                void* p2;
                int* p3;
                int x = 0;
                p3 = &x;
                p1 = (void*) p3;
                p2 = p1;
            }
            int main() { foo(); return 0; }
        "#;
        let m = compile(src, "fig8").unwrap();

        // STWC: p1 and p2 share a class (same scope-type); p3 separate.
        let a = analyze(&m, Mechanism::Stwc);
        let (p1, p2, p3) = (
            a.modifier_of(key_of(&a, "p1")).unwrap(),
            a.modifier_of(key_of(&a, "p2")).unwrap(),
            a.modifier_of(key_of(&a, "p3")).unwrap(),
        );
        assert_eq!(p1, p2, "STWC merges p1 and p2");
        assert_ne!(p1, p3, "STWC does not merge p1 and p3");

        // STC: all three merge through the cast.
        let a = analyze(&m, Mechanism::Stc);
        let (p1, p2, p3) = (
            a.modifier_of(key_of(&a, "p1")).unwrap(),
            a.modifier_of(key_of(&a, "p2")).unwrap(),
            a.modifier_of(key_of(&a, "p3")).unwrap(),
        );
        assert_eq!(p1, p2);
        assert_eq!(p1, p3, "STC merges across the cast");

        // STL: nothing merges.
        let a = analyze(&m, Mechanism::Stl);
        let (p1, p2, p3) = (
            a.modifier_of(key_of(&a, "p1")).unwrap(),
            a.modifier_of(key_of(&a, "p2")).unwrap(),
            a.modifier_of(key_of(&a, "p3")).unwrap(),
        );
        assert_ne!(p1, p2);
        assert_ne!(p1, p3);
        assert_ne!(p2, p3);
    }

    #[test]
    fn fig6_composite_field_scope_includes_struct_and_user() {
        let src = r#"
            void hello_func() { print_str("Hello!"); }
            struct node { int key; int (*fp)(); struct node* next; };
            int main() {
                struct node* ptr = (struct node*) malloc(sizeof(struct node));
                ptr->fp = hello_func;
                ptr->fp();
                return 0;
            }
        "#;
        let m = compile(src, "fig6").unwrap();
        let a = analyze(&m, Mechanism::Stwc);
        let sid = m.types.struct_by_name("node").unwrap();
        let def = m.types.struct_def(sid);
        let fp_idx = def.field_index("fp").unwrap() as u32;
        let cls = a.class_of(StorageKey::Field(sid, fp_idx)).unwrap();
        let sn = scope_names(&m, a.scopes(cls));
        assert!(sn.contains("struct node"), "composite type is part of the scope: {sn:?}");
        assert!(sn.contains("main"), "using function is part of the scope: {sn:?}");
        assert!(cls.code_ptr, "fp holds a code pointer");
    }

    #[test]
    fn parts_groups_by_type_only() {
        let m = compile(FIG5, "fig5").unwrap();
        let a = analyze(&m, Mechanism::Parts);
        // v_ctx (void*, foo2, RW) and v_const (void*, main, R) — different
        // scope-type facts, but PARTS lumps them together.
        assert_eq!(
            a.modifier_of(key_of(&a, "v_ctx")).unwrap(),
            a.modifier_of(key_of(&a, "v_const")).unwrap(),
            "PARTS cannot distinguish same-basic-type pointers"
        );
        // RSTI-STWC can.
        let b = analyze(&m, Mechanism::Stwc);
        assert_ne!(
            b.modifier_of(key_of(&b, "v_ctx")).unwrap(),
            b.modifier_of(key_of(&b, "v_const")).unwrap()
        );
    }

    #[test]
    fn modifiers_are_deterministic() {
        let m = compile(FIG5, "fig5").unwrap();
        let a1 = analyze(&m, Mechanism::Stwc);
        let a2 = analyze(&m, Mechanism::Stwc);
        for (x, y) in a1.classes.iter().zip(a2.classes.iter()) {
            assert_eq!(x.modifier, y.modifier);
        }
    }

    /// Finds the storage key of a named variable.
    fn key_of(a: &StiAnalysis, name: &str) -> StorageKey {
        a.facts
            .vars
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("no pointer var `{name}`"))
            .key
    }

    /// Found by differential fuzzing (tests/corpus/global_addr_escape.mc):
    /// `&g` on a *global* pointer variable must demote `g` into its type's
    /// anonymous class exactly like `&local` does. Before the fix,
    /// `root_of_value` returned no root for `Operand::GlobalAddr`, so the
    /// store `saved = &x` signed with `saved`'s own class while the callee's
    /// `*pp` load authenticated against `TypeOf(long*)` — a false PAC trap
    /// on a benign program.
    #[test]
    fn address_escaped_global_joins_its_anonymous_type_class() {
        let src = r#"
            long* saved;
            void bump(long** pp) {
                if (*pp != null) { **pp = **pp + 1; }
            }
            int main() {
                long x = 5;
                saved = &x;
                bump(&saved);
                return 0;
            }
        "#;
        let m = compile(src, "t").unwrap();
        let saved_ty = m
            .vars
            .iter()
            .find(|v| v.name == "saved")
            .expect("saved has a VarInfo")
            .ty;
        for mech in Mechanism::ALL {
            let a = analyze(&m, mech);
            let saved = a.modifier_of(key_of(&a, "saved")).unwrap();
            let anon = a
                .modifier_of(StorageKey::TypeOf(saved_ty))
                .expect("anonymous long* storage exists");
            assert_eq!(
                saved, anon,
                "{mech}: address-escaped global must share the anonymous class"
            );
        }
    }
}
