//! Deterministic random-program generator.
//!
//! Produces valid MiniC programs with a randomized pointer landscape —
//! struct shapes, pointer depths, cast chains, escaping locals, function
//! pointers — for differential testing (instrumented output must equal
//! baseline output under every mechanism) and for stressing the STI
//! analysis beyond the hand-written proxies.
//!
//! [`generate_items`] builds [`Item`] trees directly: `rsti-fuzz`
//! minimizes failures at the AST level, so its inputs must *be* ASTs, and
//! [`generate_source`] prints them (`rsti_frontend::print_items`) for
//! everything that wants source text — Table 3's synthetic-scaling rows,
//! the property tests and perfbench's cold-compile pool. Every program it
//! emits is well-defined MiniC — null-guarded dereferences,
//! constant-bounded loops, division only by nonzero constants — so the
//! instrumented and baseline runs must agree and any divergence is a
//! pipeline bug, not undefined behaviour in the input.

use rsti_frontend::ast::{AstType, BinOpAst, Block, Expr, FieldDecl, Item, Name, Param, Stmt, UnOp};
use rsti_rng::Rng64;

/// Parameters for the grammar-directed AST generator ([`generate_items`]).
#[derive(Debug, Clone, Copy)]
pub struct AstGenConfig {
    /// Number of struct types (the vtable struct is extra).
    pub structs: u32,
    /// Number of hook functions and vtable slots.
    pub hooks: u32,
    /// Number of worker functions.
    pub funcs: u32,
    /// Random statements per worker body.
    pub stmts_per_func: u32,
    /// Maximum depth of generated arithmetic expressions.
    pub max_expr_depth: u32,
    /// Objects allocated per struct chain.
    pub objects: u32,
    /// Iterations of the main driver loop.
    pub iters: u32,
}

impl Default for AstGenConfig {
    fn default() -> Self {
        AstGenConfig {
            structs: 3,
            hooks: 3,
            funcs: 5,
            stmts_per_func: 6,
            max_expr_depth: 3,
            objects: 4,
            iters: 4,
        }
    }
}

/// Generates a deterministic random MiniC program as an AST.
///
/// The emitted program always contains, per the fuzzing plan: a
/// function-pointer table (`struct vtbl` of hook slots plus per-object
/// `hook` members), nested by-value structs, double pointers (`long**`),
/// explicit casts and `void*` punning round-trips, locals that escape
/// through `&` into callees and a global, and heap churn (`malloc`/`free`
/// loops). It is well-defined for every seed, so differential oracles can
/// treat any baseline/instrumented divergence as a pipeline bug.
pub fn generate_items(seed: u64, cfg: AstGenConfig) -> Vec<Item> {
    let mut g = AstGen {
        rng: Rng64::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1)),
        cfg,
        structs: Vec::new(),
        hooks: cfg.hooks.max(2),
        tmp: 0,
    };
    g.gen_shapes();

    let mut items = Vec::new();
    for k in 0..g.structs.len() {
        items.push(g.struct_item(k));
    }
    items.push(g.vtbl_item());
    for h in 0..g.hooks {
        items.push(g.hook_item(h));
    }

    // Globals: the vtable, one chain root per struct, a counter the
    // workers mutate, and an escape slot for a `main` local's address.
    items.push(global(sptr("vtbl"), "vt", None));
    for k in 0..g.structs.len() {
        let name = g.structs[k].name.clone();
        items.push(global(sptr(&name), &format!("root{k}"), None));
    }
    items.push(global(AstType::Long, "gcounter", Some(ilit(g.c(1, 9)))));
    items.push(global(AstType::Long.ptr(), "saved", None));

    items.push(g.cell_new_item());
    items.push(g.cell_drop_item());
    items.push(g.bump2_item());
    items.push(g.churn_item());
    for k in 0..g.structs.len() {
        items.push(g.builder_item(k));
    }

    let mut workers = Vec::new();
    for f in 0..cfg.funcs.max(1) {
        let (item, k) = g.worker_item(f);
        workers.push((format!("work{f}"), k));
        items.push(item);
    }
    items.push(g.main_item(&workers));
    items
}

/// [`generate_items`] printed to MiniC source via the round-trip printer.
pub fn generate_source(seed: u64, cfg: AstGenConfig) -> String {
    rsti_frontend::print_items(&generate_items(seed, cfg))
}

// ---- AST construction shorthand (all nodes on line 1: the printer/parser
// round-trip is modulo line numbers, so synthetic lines carry no meaning).

const LN: u32 = 1;

fn ilit(v: i64) -> Expr {
    Expr::IntLit(v, LN)
}

fn evar(n: &str) -> Expr {
    Expr::Var(n.into(), LN)
}

fn null() -> Expr {
    Expr::Null(LN)
}

fn bin(op: BinOpAst, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary { op, operands: Box::new((lhs, rhs)), line: LN }
}

fn un(op: UnOp, e: Expr) -> Expr {
    Expr::Unary { op, expr: Box::new(e), line: LN }
}

fn call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::Call { callee: Box::new(evar(name)), args, line: LN }
}

fn call_via(callee: Expr, args: Vec<Expr>) -> Expr {
    Expr::Call { callee: Box::new(callee), args, line: LN }
}

fn arrow(base: Expr, field: &str) -> Expr {
    Expr::Member { base: Box::new(base), field: field.into(), arrow: true, line: LN }
}

fn dot(base: Expr, field: &str) -> Expr {
    Expr::Member { base: Box::new(base), field: field.into(), arrow: false, line: LN }
}

fn idx(base: Expr, index: Expr) -> Expr {
    Expr::Index { base: Box::new(base), index: Box::new(index), line: LN }
}

fn cast(ty: AstType, e: Expr) -> Expr {
    Expr::Cast { ty, expr: Box::new(e), line: LN }
}

fn assign(target: Expr, value: Expr) -> Stmt {
    Stmt::Assign { target, value, line: LN }
}

fn decl(ty: AstType, name: &str, init: Option<Expr>) -> Stmt {
    Stmt::Decl { ty, name: name.into(), is_const: false, init, line: LN }
}

fn sret(e: Expr) -> Stmt {
    Stmt::Return(Some(e), LN)
}

fn block(stmts: Vec<Stmt>) -> Block {
    Block { stmts }
}

fn sif(cond: Expr, then: Vec<Stmt>) -> Stmt {
    Stmt::If { cond, then_blk: block(then), else_blk: None, line: LN }
}

fn sif_else(cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>) -> Stmt {
    Stmt::If { cond, then_blk: block(then), else_blk: Some(block(els)), line: LN }
}

fn sfor(init: Stmt, cond: Expr, step: Stmt, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        init: Some(Box::new(init)),
        cond: Some(cond),
        step: Some(Box::new(step)),
        body: block(body),
        line: LN,
    }
}

/// `for (long name = 0; name < bound; name = name + 1) body`
fn counted_for(name: &str, bound: Expr, body: Vec<Stmt>) -> Stmt {
    sfor(
        decl(AstType::Long, name, Some(ilit(0))),
        bin(BinOpAst::Lt, evar(name), bound),
        assign(evar(name), bin(BinOpAst::Add, evar(name), ilit(1))),
        body,
    )
}

fn param(ty: AstType, name: &str) -> Param {
    Param { ty, name: name.into(), is_const: false, line: LN }
}

fn field(ty: AstType, name: &str) -> FieldDecl {
    FieldDecl { ty, name: name.into(), is_const: false, line: LN }
}

fn global(ty: AstType, name: &str, init: Option<Expr>) -> Item {
    Item::Global { ty, name: name.into(), is_const: false, init, line: LN }
}

fn func(ret: AstType, name: &str, params: Vec<Param>, body: Vec<Stmt>) -> Item {
    Item::Func {
        ret,
        name: name.into(),
        params,
        body: Some(block(body)),
        is_extern: false,
        line: LN,
    }
}

fn sptr(name: &str) -> AstType {
    AstType::Struct(name.into()).ptr()
}

/// `long (*)(long)` — the hook signature shared by vtable slots, struct
/// members, and the `op` local in `main`.
fn hook_ty() -> AstType {
    AstType::FuncPtr { ret: Box::new(AstType::Long), params: vec![AstType::Long] }
}

#[derive(Clone)]
struct StructShape {
    name: Name,
    /// By-value nested field `struct s<j> inner;` (index of an earlier
    /// struct, so sizes stay finite).
    inner: Option<usize>,
    has_hook: bool,
}

struct AstGen {
    rng: Rng64,
    cfg: AstGenConfig,
    structs: Vec<StructShape>,
    hooks: u32,
    tmp: u32,
}

impl AstGen {
    /// Inclusive random constant.
    fn c(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.rng.gen_range(0, (hi - lo + 1) as u64) as i64
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.tmp += 1;
        format!("{prefix}{}", self.tmp)
    }

    fn hook_name(&mut self) -> String {
        format!("hook{}", self.rng.gen_range(0, self.hooks as u64))
    }

    fn gen_shapes(&mut self) {
        let n = self.cfg.structs.max(1) as usize;
        for k in 0..n {
            let inner = if k > 0 && self.rng.gen_bool(0.7) {
                Some(self.rng.gen_range(0, k as u64) as usize)
            } else {
                None
            };
            let has_hook = self.rng.gen_bool(0.6);
            self.structs.push(StructShape { name: format!("s{k}").into(), inner, has_hook });
        }
        // The fuzzing plan requires these constructs in *every* program,
        // not just with high probability.
        if !self.structs.iter().any(|s| s.has_hook) {
            self.structs[0].has_hook = true;
        }
        if n >= 2 && !self.structs.iter().any(|s| s.inner.is_some()) {
            self.structs[1].inner = Some(0);
        }
    }

    // ---- fixed-shape items ----------------------------------------------

    fn struct_item(&self, k: usize) -> Item {
        let s = &self.structs[k];
        let peer = &self.structs[k.saturating_sub(1)].name;
        let mut fields = vec![
            field(AstType::Long, "v"),
            field(AstType::Long, "tag"),
            field(sptr(peer), "peer"),
        ];
        if let Some(j) = s.inner {
            fields.push(field(AstType::Struct(self.structs[j].name.clone()), "inner"));
        }
        if s.has_hook {
            fields.push(field(hook_ty(), "hook"));
        }
        Item::Struct { name: s.name.clone(), fields, line: LN }
    }

    /// `struct vtbl { long (*h0)(long); ... };` — the function-pointer table.
    fn vtbl_item(&self) -> Item {
        let fields = (0..self.hooks)
            .map(|j| field(hook_ty(), &format!("h{j}")))
            .collect();
        Item::Struct { name: "vtbl".into(), fields, line: LN }
    }

    fn hook_item(&mut self, h: u32) -> Item {
        let x = evar("x");
        let e = match self.rng.gen_range(0, 5) {
            0 => bin(BinOpAst::Add, x, ilit(self.c(1, 99))),
            1 => bin(BinOpAst::Mul, x, ilit(self.c(2, 9))),
            2 => bin(
                BinOpAst::Add,
                bin(BinOpAst::BitXor, x, ilit(self.c(1, 255))),
                ilit(self.c(0, 9)),
            ),
            3 => bin(
                BinOpAst::Sub,
                bin(BinOpAst::BitAnd, x, ilit(0xff)),
                ilit(self.c(0, 50)),
            ),
            _ => bin(BinOpAst::Add, bin(BinOpAst::Shr, x, ilit(self.c(1, 5))), ilit(1)),
        };
        func(
            AstType::Long,
            &format!("hook{h}"),
            vec![param(AstType::Long, "x")],
            vec![sret(e)],
        )
    }

    /// `long* cell_new(long v) { long* c = (long*) malloc(sizeof(long)); *c = v; return c; }`
    fn cell_new_item(&mut self) -> Item {
        func(
            AstType::Long.ptr(),
            "cell_new",
            vec![param(AstType::Long, "v")],
            vec![
                decl(
                    AstType::Long.ptr(),
                    "c",
                    Some(cast(
                        AstType::Long.ptr(),
                        call("malloc", vec![Expr::Sizeof(AstType::Long, LN)]),
                    )),
                ),
                assign(un(UnOp::Deref, evar("c")), evar("v")),
                sret(evar("c")),
            ],
        )
    }

    fn cell_drop_item(&mut self) -> Item {
        func(
            AstType::Void,
            "cell_drop",
            vec![param(AstType::Long.ptr(), "c")],
            vec![sif(
                bin(BinOpAst::Ne, evar("c"), null()),
                vec![Stmt::Expr(call("free", vec![cast(AstType::Void.ptr(), evar("c"))]))],
            )],
        )
    }

    /// Double-pointer helper: `void bump2(long** pp, long d)`.
    fn bump2_item(&mut self) -> Item {
        func(
            AstType::Void,
            "bump2",
            vec![param(AstType::Long.ptr().ptr(), "pp"), param(AstType::Long, "d")],
            vec![sif(
                bin(BinOpAst::Ne, evar("pp"), null()),
                vec![sif(
                    bin(BinOpAst::Ne, un(UnOp::Deref, evar("pp")), null()),
                    vec![assign(
                        un(UnOp::Deref, un(UnOp::Deref, evar("pp"))),
                        bin(
                            BinOpAst::Add,
                            un(UnOp::Deref, un(UnOp::Deref, evar("pp"))),
                            evar("d"),
                        ),
                    )],
                )],
            )],
        )
    }

    /// Heap churn: allocate cells in a loop, read them back, free every
    /// other one (mixing frees with live allocations stresses the
    /// allocator and the STL scope checks).
    fn churn_item(&mut self) -> Item {
        let c1 = self.c(1, 9);
        let c2 = self.c(0, 9);
        func(
            AstType::Long,
            "churn",
            vec![param(AstType::Long, "n")],
            vec![
                decl(AstType::Long, "acc", Some(ilit(0))),
                counted_for(
                    "i",
                    evar("n"),
                    vec![
                        decl(
                            AstType::Long.ptr(),
                            "cell",
                            Some(call(
                                "cell_new",
                                vec![bin(
                                    BinOpAst::Add,
                                    bin(BinOpAst::Mul, evar("i"), ilit(c1)),
                                    ilit(c2),
                                )],
                            )),
                        ),
                        assign(
                            evar("acc"),
                            bin(BinOpAst::Add, evar("acc"), un(UnOp::Deref, evar("cell"))),
                        ),
                        sif(
                            bin(BinOpAst::Eq, bin(BinOpAst::Rem, evar("i"), ilit(2)), ilit(0)),
                            vec![Stmt::Expr(call("cell_drop", vec![evar("cell")]))],
                        ),
                    ],
                ),
                sret(evar("acc")),
            ],
        )
    }

    /// Chain builder for struct `k`: allocates `n` objects, initializes
    /// every field (hooks always set, so indirect calls never hit null).
    fn builder_item(&mut self, k: usize) -> Item {
        let s = self.structs[k].clone();
        let sp = sptr(&s.name);
        let c1 = self.c(1, 9);
        let c2 = self.c(1, 7);
        let c3 = self.c(0, 5);
        let mut loop_body = vec![
            decl(
                sp.clone(),
                "o",
                Some(cast(
                    sp.clone(),
                    call("malloc", vec![Expr::Sizeof(AstType::Struct(s.name.clone()), LN)]),
                )),
            ),
            assign(arrow(evar("o"), "v"), bin(BinOpAst::Add, evar("i"), ilit(c1))),
            assign(
                arrow(evar("o"), "tag"),
                bin(BinOpAst::Sub, bin(BinOpAst::Mul, evar("i"), ilit(c2)), ilit(c3)),
            ),
            // s0 chains to the previously built object; later structs
            // point at the previous struct's chain.
            assign(arrow(evar("o"), "peer"), evar(if k == 0 { "head" } else { "peer" })),
        ];
        if s.inner.is_some() {
            loop_body.push(assign(
                dot(arrow(evar("o"), "inner"), "v"),
                bin(BinOpAst::Mul, evar("i"), ilit(c2)),
            ));
            loop_body.push(assign(dot(arrow(evar("o"), "inner"), "tag"), ilit(c3)));
        }
        if s.has_hook {
            let h = self.hook_name();
            loop_body.push(assign(arrow(evar("o"), "hook"), evar(&h)));
        }
        loop_body.push(assign(evar("head"), evar("o")));

        let mut params = vec![param(AstType::Long, "n")];
        if k > 0 {
            params.push(param(sptr(&self.structs[k - 1].name), "peer"));
        }
        func(
            sp.clone(),
            &format!("build{k}"),
            params,
            vec![
                decl(sp, "head", Some(null())),
                counted_for("i", evar("n"), loop_body),
                sret(evar("head")),
            ],
        )
    }

    // ---- random expressions ---------------------------------------------

    /// A well-defined `long` expression over `env` lvalues and constants:
    /// wrapping add/sub/mul/bit-ops, division and remainder only by
    /// nonzero constants, shifts masked by the VM.
    fn gen_long(&mut self, env: &[Expr], depth: u32) -> Expr {
        if depth == 0 || self.rng.gen_bool(0.3) {
            if !env.is_empty() && self.rng.gen_bool(0.72) {
                let i = self.rng.gen_range(0, env.len() as u64) as usize;
                return env[i].clone();
            }
            return ilit(self.c(-64, 512));
        }
        let l = self.gen_long(env, depth - 1);
        match self.rng.gen_range(0, 12) {
            0 | 1 => {
                let r = self.gen_long(env, depth - 1);
                bin(BinOpAst::Add, l, r)
            }
            2 => {
                let r = self.gen_long(env, depth - 1);
                bin(BinOpAst::Sub, l, r)
            }
            3 => {
                let r = self.gen_long(env, depth - 1);
                bin(BinOpAst::Mul, l, r)
            }
            4 => {
                let r = self.gen_long(env, depth - 1);
                bin(BinOpAst::BitAnd, l, r)
            }
            5 => {
                let r = self.gen_long(env, depth - 1);
                bin(BinOpAst::BitOr, l, r)
            }
            6 => {
                let r = self.gen_long(env, depth - 1);
                bin(BinOpAst::BitXor, l, r)
            }
            7 => bin(BinOpAst::Div, l, ilit(self.c(1, 9))),
            8 => bin(BinOpAst::Rem, l, ilit(self.c(1, 9))),
            9 => bin(BinOpAst::Shr, l, ilit(self.c(0, 7))),
            10 => bin(
                BinOpAst::Shl,
                bin(BinOpAst::BitAnd, l, ilit(0xffff)),
                ilit(self.c(0, 7)),
            ),
            _ => un(UnOp::Neg, l),
        }
    }

    fn gen_cond(&mut self, env: &[Expr], allow_logic: bool) -> Expr {
        let op = [
            BinOpAst::Eq,
            BinOpAst::Ne,
            BinOpAst::Lt,
            BinOpAst::Le,
            BinOpAst::Gt,
            BinOpAst::Ge,
        ][self.rng.gen_range(0, 6) as usize];
        let l = self.gen_long(env, 1);
        let r = self.gen_long(env, 1);
        let base = bin(op, l, r);
        if allow_logic && self.rng.gen_bool(0.3) {
            let rhs = self.gen_cond(env, false);
            let lop = if self.rng.gen_bool(0.5) { BinOpAst::LogAnd } else { BinOpAst::LogOr };
            return bin(lop, base, rhs);
        }
        base
    }

    // ---- workers ---------------------------------------------------------

    /// A worker takes a (possibly null) chain pointer plus a scalar and
    /// folds random well-defined work into an accumulator.
    fn worker_item(&mut self, f: u32) -> (Item, usize) {
        let k = self.rng.gen_range(0, self.structs.len() as u64) as usize;
        let shape = self.structs[k].clone();
        let depth = self.cfg.max_expr_depth.max(1);

        let mut env = vec![
            evar("acc"),
            evar("z"),
            arrow(evar("p"), "v"),
            arrow(evar("p"), "tag"),
            evar("gcounter"),
        ];
        if shape.inner.is_some() {
            env.push(dot(arrow(evar("p"), "inner"), "v"));
        }

        let mut stmts = vec![
            sif(
                bin(BinOpAst::Eq, evar("p"), null()),
                vec![sret(bin(BinOpAst::Sub, ilit(0), evar("z")))],
            ),
            decl(AstType::Long, "acc", Some(evar("z"))),
        ];
        for _ in 0..self.cfg.stmts_per_func.max(1) {
            self.worker_stmt(&mut stmts, &env, &shape, depth);
        }
        stmts.push(sret(evar("acc")));

        let item = func(
            AstType::Long,
            &format!("work{f}"),
            vec![param(sptr(&shape.name), "p"), param(AstType::Long, "z")],
            stmts,
        );
        (item, k)
    }

    fn worker_stmt(&mut self, out: &mut Vec<Stmt>, env: &[Expr], shape: &StructShape, depth: u32) {
        match self.rng.gen_range(0, 11) {
            0 => {
                let e = self.gen_long(env, depth);
                out.push(assign(evar("acc"), e));
            }
            1 => {
                let e = self.gen_long(env, depth);
                out.push(assign(arrow(evar("p"), "v"), e));
            }
            2 => {
                // int↔long punning: truncate through `int` and widen back.
                let e = self.gen_long(env, depth.min(2));
                out.push(assign(
                    arrow(evar("p"), "tag"),
                    cast(AstType::Long, cast(AstType::Int, e)),
                ));
            }
            3 => {
                // Null-guarded peer walk.
                let peer = arrow(evar("p"), "peer");
                let e = self.gen_long(env, 1);
                out.push(sif(
                    bin(BinOpAst::Ne, peer.clone(), null()),
                    vec![
                        assign(
                            arrow(peer.clone(), "v"),
                            bin(BinOpAst::Add, arrow(peer.clone(), "v"), e),
                        ),
                        assign(
                            evar("acc"),
                            bin(BinOpAst::Add, evar("acc"), arrow(peer, "tag")),
                        ),
                    ],
                ));
            }
            4 => {
                // Indirect call through the object's own hook (builders
                // always set it) or through the global vtable.
                let arg = bin(BinOpAst::BitAnd, self.gen_long(env, 1), ilit(1023));
                let callee = if shape.has_hook && self.rng.gen_bool(0.5) {
                    arrow(evar("p"), "hook")
                } else {
                    let j = self.rng.gen_range(0, self.hooks as u64);
                    arrow(evar("vt"), &format!("h{j}"))
                };
                let add = assign(
                    evar("acc"),
                    bin(BinOpAst::Add, evar("acc"), call_via(callee, vec![arg])),
                );
                out.push(sif(bin(BinOpAst::Ne, evar("vt"), null()), vec![add]));
            }
            5 => {
                // Pointer punning round-trip through void*.
                let q = self.fresh("pun");
                let sp = sptr(&shape.name);
                out.push(Stmt::Block(block(vec![
                    decl(
                        sp.clone(),
                        &q,
                        Some(cast(sp, cast(AstType::Void.ptr(), evar("p")))),
                    ),
                    assign(
                        evar("acc"),
                        bin(BinOpAst::Add, evar("acc"), arrow(evar(&q), "v")),
                    ),
                ])));
            }
            6 => {
                let c = self.c(1, 5);
                out.push(assign(
                    evar("gcounter"),
                    bin(BinOpAst::Add, evar("gcounter"), ilit(c)),
                ));
                out.push(assign(
                    evar("acc"),
                    bin(BinOpAst::Add, evar("acc"), evar("gcounter")),
                ));
            }
            7 => {
                let c = self.gen_cond(env, true);
                let t = self.gen_long(env, depth.min(2));
                let e = self.gen_long(env, depth.min(2));
                out.push(sif_else(
                    c,
                    vec![assign(evar("acc"), t)],
                    vec![assign(evar("acc"), e)],
                ));
            }
            8 => {
                // Constant-bounded while countdown.
                let t = self.fresh("t");
                let n = self.c(1, 4);
                let e = self.gen_long(env, 1);
                out.push(decl(AstType::Long, &t, Some(ilit(n))));
                out.push(Stmt::While {
                    cond: bin(BinOpAst::Gt, evar(&t), ilit(0)),
                    body: block(vec![
                        assign(evar("acc"), bin(BinOpAst::Add, evar("acc"), e)),
                        assign(evar(&t), bin(BinOpAst::Sub, evar(&t), ilit(1))),
                    ]),
                    line: LN,
                });
            }
            9 => {
                // do-while runs at least once; constant bound.
                let t = self.fresh("t");
                let n = self.c(1, 3);
                let e = self.gen_long(env, 1);
                out.push(decl(AstType::Long, &t, Some(ilit(0))));
                out.push(Stmt::DoWhile {
                    cond: bin(BinOpAst::Lt, evar(&t), ilit(n)),
                    body: block(vec![
                        assign(evar("acc"), bin(BinOpAst::BitXor, evar("acc"), e)),
                        assign(evar(&t), bin(BinOpAst::Add, evar(&t), ilit(1))),
                    ]),
                    line: LN,
                });
            }
            _ => {
                let i = self.fresh("i");
                let n = self.c(1, 4);
                let e = self.gen_long(env, 1);
                out.push(counted_for(
                    &i,
                    ilit(n),
                    vec![assign(evar("acc"), bin(BinOpAst::Add, evar("acc"), e))],
                ));
            }
        }
    }

    // ---- main ------------------------------------------------------------

    fn main_item(&mut self, workers: &[(String, usize)]) -> Item {
        let mut st = vec![decl(AstType::Long, "acc", Some(ilit(0)))];

        // Function-pointer table: heap vtable with randomly wired slots.
        st.push(assign(
            evar("vt"),
            cast(
                sptr("vtbl"),
                call("malloc", vec![Expr::Sizeof(AstType::Struct("vtbl".into()), LN)]),
            ),
        ));
        for j in 0..self.hooks {
            let h = self.hook_name();
            st.push(assign(arrow(evar("vt"), &format!("h{j}")), evar(&h)));
        }

        // Build the chains.
        let n_objects = self.cfg.objects.max(1) as i64;
        for k in 0..self.structs.len() {
            let mut args = vec![ilit(n_objects)];
            if k > 0 {
                args.push(evar(&format!("root{}", k - 1)));
            }
            st.push(assign(evar(&format!("root{k}")), call(&format!("build{k}"), args)));
        }

        // Stack array, filled with a constant-bounded loop.
        let cf = self.c(1, 9);
        let cg = self.c(0, 5);
        st.push(decl(AstType::Array(Box::new(AstType::Long), 8), "buf", None));
        st.push(counted_for(
            "i",
            ilit(8),
            vec![assign(
                idx(evar("buf"), evar("i")),
                bin(BinOpAst::Add, bin(BinOpAst::Mul, evar("i"), ilit(cf)), ilit(cg)),
            )],
        ));

        // Escaping locals and double pointers: &loc flows into bump2
        // (long**) and into the `saved` global; both writes land while the
        // frame is still live.
        st.push(decl(AstType::Long, "loc", Some(ilit(self.c(1, 99)))));
        st.push(decl(AstType::Long.ptr(), "lp", Some(un(UnOp::AddrOf, evar("loc")))));
        let d1 = self.c(1, 9);
        let d2 = self.c(1, 9);
        st.push(Stmt::Expr(call("bump2", vec![un(UnOp::AddrOf, evar("lp")), ilit(d1)])));
        st.push(assign(evar("saved"), evar("lp")));
        st.push(Stmt::Expr(call("bump2", vec![un(UnOp::AddrOf, evar("saved")), ilit(d2)])));
        st.push(assign(
            evar("acc"),
            bin(
                BinOpAst::Add,
                evar("acc"),
                bin(BinOpAst::Add, evar("loc"), un(UnOp::Deref, evar("lp"))),
            ),
        ));
        st.push(assign(
            evar("acc"),
            bin(BinOpAst::Add, evar("acc"), idx(evar("buf"), ilit(3))),
        ));

        // A local function-pointer variable, reassigned between calls.
        let h1 = self.hook_name();
        let h2 = self.hook_name();
        let a1 = self.c(1, 49);
        st.push(decl(hook_ty(), "op", Some(evar(&h1))));
        st.push(assign(
            evar("acc"),
            bin(BinOpAst::Add, evar("acc"), call_via(evar("op"), vec![ilit(a1)])),
        ));
        st.push(assign(evar("op"), evar(&h2)));
        st.push(assign(
            evar("acc"),
            bin(
                BinOpAst::Add,
                evar("acc"),
                call_via(evar("op"), vec![bin(BinOpAst::BitAnd, evar("acc"), ilit(255))]),
            ),
        ));

        // Heap churn.
        st.push(assign(
            evar("acc"),
            bin(BinOpAst::Add, evar("acc"), call("churn", vec![ilit(n_objects + 2)])),
        ));

        // Driver loop over the workers.
        let mut loop_body = Vec::new();
        for (wname, k) in workers {
            let sname = self.structs[*k].name.clone();
            let root = evar(&format!("root{k}"));
            let arg0 = if self.rng.gen_bool(0.35) {
                cast(sptr(&sname), cast(AstType::Void.ptr(), root))
            } else {
                root
            };
            let z = if self.rng.gen_bool(0.5) {
                bin(BinOpAst::Add, evar("it"), ilit(self.c(0, 9)))
            } else {
                ilit(self.c(0, 99))
            };
            loop_body.push(assign(
                evar("acc"),
                bin(BinOpAst::Add, evar("acc"), call(wname, vec![arg0, z])),
            ));
        }
        loop_body.push(assign(
            evar("gcounter"),
            bin(BinOpAst::Add, evar("gcounter"), ilit(1)),
        ));
        st.push(counted_for("it", ilit(self.cfg.iters.max(1) as i64), loop_body));

        st.push(assign(evar("saved"), null()));
        st.push(Stmt::Expr(call("print_int", vec![evar("acc")])));
        st.push(Stmt::Expr(call("print_int", vec![evar("gcounter")])));
        st.push(Stmt::Return(Some(ilit(0)), LN));

        func(AstType::Int, "main", Vec::new(), st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_frontend::compile;
    use rsti_vm::{Image, Status, Vm};

    /// A program shape that varies with `seed`, from the one-struct,
    /// one-worker minimum (hooks clamp to two) up to twice the default,
    /// so the size knobs are exercised, not only [`AstGenConfig::default`].
    fn shape(seed: u64) -> AstGenConfig {
        let k = (seed % 6) as u32;
        AstGenConfig {
            structs: 1 + k,
            hooks: k,
            funcs: 1 + 2 * k,
            stmts_per_func: 2 + k,
            objects: 1 + k % 4,
            ..AstGenConfig::default()
        }
    }

    #[test]
    fn generated_programs_compile_and_run() {
        for seed in 0..30u64 {
            let src = generate_source(seed, shape(seed));
            let m = compile(&src, "gen").unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let r = Vm::new(&Image::baseline(&m)).run();
            assert!(matches!(r.status, Status::Exited(0)), "seed {seed}: {:?}\n{src}", r.status);
        }
    }

    #[test]
    fn differential_instrumented_equals_baseline() {
        for seed in 0..12u64 {
            let src = generate_source(seed, shape(seed));
            let m = compile(&src, "gen").unwrap();
            let base = Vm::new(&Image::baseline(&m)).run();
            for mech in rsti_core::Mechanism::ALL {
                let p = rsti_core::instrument(&m, mech);
                let r = Vm::new(&Image::from_instrumented(&p)).run();
                assert_eq!(r.status, base.status, "seed {seed} {mech}\n{src}");
                assert_eq!(r.output, base.output, "seed {seed} {mech}");
            }
        }
    }

    #[test]
    fn table3_invariants_hold_on_generated_programs() {
        for seed in 0..20u64 {
            let cfg = AstGenConfig { structs: 4, funcs: 8, ..AstGenConfig::default() };
            let src = generate_source(seed, cfg);
            let m = compile(&src, "gen").unwrap();
            let stats = rsti_core::equivalence_stats(&m);
            assert_eq!(stats.invariant_violation(), None, "seed {seed}: {stats:?}");
        }
    }

    #[test]
    fn ast_generated_programs_roundtrip_through_the_printer() {
        for seed in 0..40u64 {
            let items = generate_items(seed, AstGenConfig::default());
            let src = rsti_frontend::print_items(&items);
            let reparsed = rsti_frontend::parse(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{src}"));
            assert!(
                rsti_frontend::ast_eq_items(&items, &reparsed),
                "seed {seed}: parse(print(ast)) != ast\n{src}"
            );
        }
    }

    #[test]
    fn ast_generated_programs_compile_and_run_deterministically() {
        for seed in 0..25u64 {
            let src = generate_source(seed, AstGenConfig::default());
            let m = compile(&src, "astgen")
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let a = Vm::new(&Image::baseline(&m)).run();
            let b = Vm::new(&Image::baseline(&m)).run();
            assert!(
                matches!(a.status, Status::Exited(0)),
                "seed {seed}: {:?}\n{src}",
                a.status
            );
            assert_eq!(a.output, b.output, "seed {seed}: nondeterministic output");
        }
    }

    #[test]
    fn ast_generated_differential_instrumented_equals_baseline() {
        for seed in 0..8u64 {
            let src = generate_source(seed, AstGenConfig::default());
            let m = compile(&src, "astgen").unwrap();
            let base = Vm::new(&Image::baseline(&m)).run();
            for mech in rsti_core::Mechanism::ALL {
                let p = rsti_core::instrument(&m, mech);
                let r = Vm::new(&Image::from_instrumented(&p)).run();
                assert_eq!(r.status, base.status, "seed {seed} {mech}\n{src}");
                assert_eq!(r.output, base.output, "seed {seed} {mech}");
            }
        }
    }

    #[test]
    fn ast_generator_always_emits_the_required_constructs() {
        for seed in 0..10u64 {
            let src = generate_source(seed, AstGenConfig::default());
            for needle in [
                "struct vtbl", // function-pointer table
                "(*hook)",     // per-object function-pointer member
                " inner;",     // nested by-value struct
                "long** pp",   // double pointer
                "(void*)",     // cast / type punning
                "&loc",        // escaping local
                "free(",       // heap churn
                "malloc(",
            ] {
                assert!(
                    src.contains(needle),
                    "seed {seed}: generated program lacks `{needle}`:\n{src}"
                );
            }
        }
    }
}
