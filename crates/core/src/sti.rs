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
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// Scopes the variable is used in (loads/stores of its storage).
    pub use_scopes: BTreeSet<Scope>,
    /// Widened scope set (decl + use + escape widening) — the STI scope.
    pub scopes: BTreeSet<Scope>,
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
}

impl StiFacts {
    /// Index of a key, if it denotes pointer storage.
    pub fn var_of(&self, key: StorageKey) -> Option<usize> {
        self.index.get(&key).copied()
    }
}

/// An RSTI-type: an equivalence class of pointer variables sharing one PAC
/// modifier.
#[derive(Debug, Clone)]
pub struct RstiClass {
    /// Basic types in the class (singleton except under STC).
    pub types: BTreeSet<TypeId>,
    /// The STI scope set of the class.
    pub scopes: BTreeSet<Scope>,
    /// Permission.
    pub writable: bool,
    /// Member variable indices (into [`StiFacts::vars`]).
    pub members: Vec<usize>,
    /// The 64-bit PAC modifier derived from the class facts.
    pub modifier: u64,
    /// Whether members hold code pointers (selects the `Ia` key).
    pub code_ptr: bool,
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
}

/// FNV-1a, the stable hash behind modifiers (the paper uses internal LLVM
/// type ids; any deterministic injection into 64 bits serves).
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn scope_name(m: &Module, s: Scope) -> String {
    match s {
        Scope::Function(i) => m.funcs[i as usize].name.clone(),
        Scope::Struct(sid) => format!("struct {}", m.types.struct_def(sid).name),
        Scope::Module => "<module>".into(),
        Scope::External => "<external>".into(),
    }
}

/// Collects pointer variables and the flow graph for a module.
pub fn collect_facts(m: &Module) -> StiFacts {
    let _span = rsti_telemetry::global().span(rsti_telemetry::Phase::CollectFacts);
    let mut facts = StiFacts {
        vars: Vec::new(),
        index: HashMap::new(),
        edges: Vec::new(),
        forced_unions: Vec::new(),
    };

    let add_var = |facts: &mut StiFacts,
                       key: StorageKey,
                       ty: TypeId,
                       writable: bool,
                       decl: Option<Scope>,
                       name: String,
                       code: bool| {
        if facts.index.contains_key(&key) {
            return;
        }
        let idx = facts.vars.len();
        facts.index.insert(key, idx);
        facts.vars.push(PointerVar {
            key,
            ty,
            writable,
            decl_scope: decl,
            use_scopes: BTreeSet::new(),
            scopes: BTreeSet::new(),
            name,
            is_code_ptr: code,
        });
    };

    // Named variables (locals, params, globals) with pointer types.
    for (i, v) in m.vars.iter().enumerate() {
        if m.types.is_ptr(v.ty) && v.kind != VarKind::Field {
            add_var(
                &mut facts,
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
                add_var(
                    &mut facts,
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
        let defs = DefMap::new(f);

        let mut touch = |facts: &mut StiFacts, key: StorageKey, ty: TypeId, scope: Scope| {
            if !facts.index.contains_key(&key) {
                if let StorageKey::TypeOf(t) = key {
                    let name = format!("<*{}>", m.types.display(t));
                    let code = m.types.is_func_ptr(ty);
                    add_var(facts, key, ty, true, None, name, code);
                } else {
                    return;
                }
            }
            if let Some(&i) = facts.index.get(&key) {
                facts.vars[i].use_scopes.insert(scope);
            }
        };

        for node in f.insts() {
            let scope = node.loc.map(|l| l.scope).unwrap_or(fscope);
            match &node.inst {
                Inst::Store { value, ptr } => {
                    let vty = operand_type(m, f, value);
                    if !m.types.is_ptr(vty) {
                        continue;
                    }
                    let dst = storage_of_addr(m, f, &defs, ptr);
                    touch(&mut facts, dst, vty, scope);
                    let root = root_of_value(m, f, &defs, value);
                    if let Some(src) = root.key {
                        touch(&mut facts, src, root.root_ty.unwrap_or(vty), scope);
                        add_edge(&mut facts, src, dst, root.casted);
                        if root.is_address {
                            address_escape(m, &mut facts, &mut touch, root, vty, scope);
                        }
                    }
                }
                Inst::Load { ptr, ty, .. } => {
                    if !m.types.is_ptr(*ty) {
                        continue;
                    }
                    let key = storage_of_addr(m, f, &defs, ptr);
                    touch(&mut facts, key, *ty, scope);
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
                        let root = root_of_value(m, f, &defs, a);
                        if let Some(src) = root.key {
                            add_edge(&mut facts, src, dst, root.casted);
                            if root.is_address {
                                address_escape(m, &mut facts, &mut touch, root, aty, scope);
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
                                touch(&mut facts, ka, oc, scope);
                                touch(&mut facts, kb, ac, scope);
                                if let (Some(&ia), Some(&ib)) =
                                    (facts.index.get(&ka), facts.index.get(&kb))
                                {
                                    if ia != ib
                                        && !facts.forced_unions.contains(&(ia, ib))
                                    {
                                        facts.forced_unions.push((ia, ib));
                                    }
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
    for v in &mut facts.vars {
        v.scopes = v.use_scopes.clone();
        if let Some(d) = v.decl_scope {
            v.scopes.insert(d);
        }
    }
    widen_scopes(&mut facts);
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
    facts: &mut StiFacts,
    touch: &mut impl FnMut(&mut StiFacts, StorageKey, TypeId, Scope),
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
    let mut union_with = |facts: &mut StiFacts, anon_ty: TypeId| {
        let anon = StorageKey::TypeOf(anon_ty);
        touch(facts, anon, anon_ty, scope);
        let (Some(&a), Some(&b)) = (facts.index.get(&key), facts.index.get(&anon)) else {
            return;
        };
        if a != b && !facts.forced_unions.contains(&(a, b)) {
            facts.forced_unions.push((a, b));
        }
        add_edge(facts, key, anon, false);
    };
    union_with(facts, content);
    // Cast view: `(T2**) &p` makes `p`'s slot readable as T2*.
    if root.casted {
        if let Some(viewed_content) = m.types.pointee(viewed_ty) {
            if m.types.is_ptr(viewed_content) && viewed_content != content {
                union_with(facts, viewed_content);
            }
        }
    }
}

fn add_edge(facts: &mut StiFacts, a: StorageKey, b: StorageKey, casted: bool) {
    let (Some(&ai), Some(&bi)) = (facts.index.get(&a), facts.index.get(&b)) else {
        return;
    };
    if ai == bi {
        return;
    }
    if !facts
        .edges
        .iter()
        .any(|e| (e.a == ai && e.b == bi || e.a == bi && e.b == ai) && e.casted == casted)
    {
        facts.edges.push(FlowEdge { a: ai, b: bi, casted });
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
fn widen_scopes(facts: &mut StiFacts) {
    let n = facts.vars.len();
    let mut uf = UnionFind::new(n);
    for e in &facts.edges {
        uf.union(e.a, e.b);
    }
    // component → decl scopes of all members, and type-count per component.
    let mut comp_scopes: HashMap<usize, BTreeSet<Scope>> = HashMap::new();
    let mut comp_type_count: HashMap<(usize, TypeId), usize> = HashMap::new();
    for i in 0..n {
        let c = uf.find(i);
        if let Some(d) = facts.vars[i].decl_scope {
            comp_scopes.entry(c).or_default().insert(d);
        }
        *comp_type_count.entry((c, facts.vars[i].ty)).or_insert(0) += 1;
    }
    for i in 0..n {
        let c = uf.find(i);
        let ty = facts.vars[i].ty;
        if comp_type_count.get(&(c, ty)).copied().unwrap_or(0) >= 2 {
            if let Some(ws) = comp_scopes.get(&c) {
                facts.vars[i].scopes.extend(ws.iter().copied());
            }
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
    let facts = collect_facts(m);
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
    let mut class_of_var = vec![0usize; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();

    match mechanism {
        Mechanism::Stl => {
            // One class per variable.
            for (i, c) in class_of_var.iter_mut().enumerate() {
                *c = groups.len();
                groups.push(vec![i]);
            }
        }
        Mechanism::Parts => {
            // Basic type only.
            let mut by_ty: BTreeMap<TypeId, usize> = BTreeMap::new();
            for (i, c) in class_of_var.iter_mut().enumerate() {
                let g = *by_ty.entry(facts.vars[i].ty).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                *c = g;
                groups[g].push(i);
            }
        }
        Mechanism::Stwc | Mechanism::Stc => {
            // Group by (type, scope set, permission).
            let mut by_key: BTreeMap<(TypeId, Vec<Scope>, bool), usize> = BTreeMap::new();
            for (i, c) in class_of_var.iter_mut().enumerate() {
                let v = &facts.vars[i];
                let key = (v.ty, v.scopes.iter().copied().collect::<Vec<_>>(), v.writable);
                let g = *by_key.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                *c = g;
                groups[g].push(i);
            }
        }
    }

    // Cross-class merges: STC combines cast-compatible classes; every
    // mechanism honours the forced (address-escape) unions.
    let mut pairs: Vec<(usize, usize)> = facts.forced_unions.clone();
    if mechanism == Mechanism::Stc {
        for e in &facts.edges {
            if e.casted {
                pairs.push((e.a, e.b));
            }
        }
    }
    if !pairs.is_empty() {
        let mut uf = UnionFind::new(groups.len());
        for (a, b) in pairs {
            uf.union(class_of_var[a], class_of_var[b]);
        }
        let mut remap: HashMap<usize, usize> = HashMap::new();
        let mut merged: Vec<Vec<usize>> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            let root = uf.find(gi);
            let slot = *remap.entry(root).or_insert_with(|| {
                merged.push(Vec::new());
                merged.len() - 1
            });
            merged[slot].extend(g.iter().copied());
        }
        groups = merged;
        for (gi, g) in groups.iter().enumerate() {
            for &v in g {
                class_of_var[v] = gi;
            }
        }
    }

    // Materialize classes with modifiers.
    let mut classes = Vec::with_capacity(groups.len());
    for g in &groups {
        let mut types = BTreeSet::new();
        let mut scopes = BTreeSet::new();
        let mut writable = false;
        let mut code_ptr = false;
        for &vi in g {
            let v = &facts.vars[vi];
            types.insert(v.ty);
            scopes.extend(v.scopes.iter().copied());
            writable |= v.writable;
            code_ptr |= v.is_code_ptr;
        }
        let mut desc = format!("{mechanism}|");
        for t in &types {
            desc.push_str(&m.types.display(*t));
            desc.push(';');
        }
        desc.push('|');
        // PARTS ignores scope and permission in the modifier.
        if mechanism != Mechanism::Parts {
            for s in &scopes {
                desc.push_str(&scope_name(m, *s));
                desc.push(';');
            }
            desc.push('|');
            desc.push(if writable { 'W' } else { 'R' });
        }
        // STL keys each variable separately: two same-fact variables must
        // not share even the static part of the modifier (the location is
        // mixed in on top at runtime).
        if mechanism == Mechanism::Stl {
            for &vi in g {
                desc.push('|');
                desc.push_str(&facts.vars[vi].name);
                desc.push_str(&format!("#{vi}"));
            }
        }
        let modifier = fnv1a(desc.as_bytes());
        classes.push(RstiClass {
            types,
            scopes,
            writable,
            members: g.clone(),
            modifier,
            code_ptr,
        });
    }

    StiAnalysis { mechanism, classes, class_of_var, facts }
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

    fn scope_names(m: &Module, scopes: &BTreeSet<Scope>) -> BTreeSet<String> {
        scopes.iter().map(|&s| scope_name(m, s)).collect()
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
        assert_eq!(c_cls.types.len(), 1);
        assert_eq!(m.types.display(*c_cls.types.iter().next().unwrap()), "struct ctx*");
        assert_eq!(
            scope_names(&m, &c_cls.scopes),
            ["main", "foo", "bar", "foo2"].iter().map(|s| s.to_string()).collect()
        );
        assert!(c_cls.writable);
        // The two ctx* params of foo and bar share M1 with c.
        assert!(names(&m, &a.facts, &c_cls.members).contains(&"c".to_string()));
        assert!(
            c_cls.members.len() >= 3,
            "c plus the foo/bar params: {:?}",
            names(&m, &a.facts, &c_cls.members)
        );

        // M2: void* with scope {foo2}, R/W.
        assert_eq!(scope_names(&m, &vctx_cls.scopes), ["foo2".to_string()].into());
        assert!(vctx_cls.writable);

        // M3: void* with scope {main}, read-only.
        assert_eq!(scope_names(&m, &vconst_cls.scopes), ["main".to_string()].into());
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
            c_cls.types.iter().map(|t| m.types.display(*t)).collect();
        assert!(tys.contains("struct ctx*") && tys.contains("void*"));
        // ...but the const void* stays separate (M2 in Figure 5b).
        assert_ne!(c_cls.modifier, vconst_cls.modifier);
    }

    #[test]
    fn fig5c_stl_gives_every_variable_its_own_class() {
        let m = compile(FIG5, "fig5").unwrap();
        let a = analyze(&m, Mechanism::Stl);
        for cls in &a.classes {
            assert_eq!(cls.members.len(), 1, "STL classes are singletons");
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
        let sn = scope_names(&m, &cls.scopes);
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
