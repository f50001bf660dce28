//! AST → MiniC pretty-printer.
//!
//! The fuzzing subsystem (`rsti-fuzz`) manipulates programs at the AST
//! level — the grammar-directed generator emits [`Item`] trees and the
//! delta-debugging minimizer deletes/simplifies AST nodes — but the
//! pipeline under test consumes *source text*. The printer is the bridge,
//! and it carries a machine-checked contract:
//!
//! ```text
//! parse(print(items)) ≡ items        (structurally, modulo line numbers)
//! ```
//!
//! checked by [`ast_eq_items`] in property tests. Two consequences shape
//! the implementation:
//!
//! * **Aggressive parenthesisation.** Every binary/unary subexpression is
//!   printed inside parentheses, so no precedence or associativity
//!   reasoning is needed and the reparse is unambiguous. Parentheses do
//!   not create AST nodes, so round-tripping is unaffected.
//! * **Negative integer literals print as hex.** `-5` *as source* parses
//!   to `Unary(Neg, IntLit(5))`, not `IntLit(-5)`, so a negative
//!   [`Expr::IntLit`] (which the minimizer can produce by folding) is
//!   printed as the two's-complement hex literal — `0xFFFF...FB` — which
//!   the lexer reinterprets to the identical `i64` value.
//!
//! Compound assignments (`+=`, `++`) never appear: the parser desugars
//! them to plain assignments, so the printer only ever sees — and only
//! ever needs to emit — the desugared form.

use crate::ast::*;
use std::fmt::Write as _;

/// Prints a whole translation unit as parseable MiniC source.
pub fn print_items(items: &[Item]) -> String {
    let mut p = Printer { out: String::new(), indent: 0 };
    for it in items {
        p.item(it);
    }
    p.out
}

/// Prints a single expression (diagnostics, tests).
pub fn print_expr(e: &Expr) -> String {
    let mut p = Printer { out: String::new(), indent: 0 };
    p.expr(e);
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line_start(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
    }

    fn nl(&mut self) {
        self.out.push('\n');
    }

    // ---- types ----------------------------------------------------------

    /// Prints a declaration `TYPE NAME` handling the three declarator
    /// shapes the grammar distinguishes: plain, array, function pointer.
    fn decl(&mut self, ty: &AstType, name: &str, is_const: bool) {
        if is_const {
            self.out.push_str("const ");
        }
        match ty {
            AstType::FuncPtr { ret, params } => {
                self.type_name(ret);
                let _ = write!(self.out, " (*{name})");
                self.fnptr_params(params);
            }
            AstType::Array(elem, n) => {
                self.type_name(elem);
                let _ = write!(self.out, " {name}[{n}]");
            }
            _ => {
                self.type_name(ty);
                let _ = write!(self.out, " {name}");
            }
        }
    }

    /// Prints an abstract type (casts, sizeof, fn-ptr parameter lists).
    fn type_name(&mut self, ty: &AstType) {
        match ty {
            AstType::Void => self.out.push_str("void"),
            AstType::Bool => self.out.push_str("bool"),
            AstType::Char => self.out.push_str("char"),
            AstType::Short => self.out.push_str("short"),
            AstType::Int => self.out.push_str("int"),
            AstType::Long => self.out.push_str("long"),
            AstType::Double => self.out.push_str("double"),
            AstType::Struct(n) => {
                let _ = write!(self.out, "struct {n}");
            }
            AstType::Ptr(inner) => {
                self.type_name(inner);
                self.out.push('*');
            }
            AstType::FuncPtr { ret, params } => {
                self.type_name(ret);
                self.out.push_str(" (*)");
                self.fnptr_params(params);
            }
            AstType::Array(elem, n) => {
                // Arrays are only legal in declarations; an abstract-type
                // position falls back to the element type (sizeof of an
                // array type never round-trips through this printer, and
                // the generator never emits one).
                self.type_name(elem);
                let _ = write!(self.out, "[{n}]");
            }
        }
    }

    fn fnptr_params(&mut self, params: &[AstType]) {
        self.out.push('(');
        for (i, p) in params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.type_name(p);
        }
        self.out.push(')');
    }

    // ---- items ----------------------------------------------------------

    fn item(&mut self, it: &Item) {
        match it {
            Item::Struct { name, fields, .. } => {
                let _ = writeln!(self.out, "struct {name} {{");
                self.indent += 1;
                for f in fields {
                    self.line_start();
                    self.decl(&f.ty, &f.name, f.is_const);
                    self.out.push(';');
                    self.nl();
                }
                self.indent -= 1;
                self.out.push_str("};\n");
            }
            Item::Global { ty, name, is_const, init, .. } => {
                self.decl(ty, name, *is_const);
                if let Some(e) = init {
                    self.out.push_str(" = ");
                    self.expr(e);
                }
                self.out.push_str(";\n");
            }
            Item::Func { ret, name, params, body, is_extern, .. } => {
                if *is_extern {
                    self.out.push_str("extern ");
                }
                self.type_name(ret);
                let _ = write!(self.out, " {name}(");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.decl(&p.ty, &p.name, p.is_const);
                }
                self.out.push(')');
                match body {
                    Some(b) => {
                        self.out.push(' ');
                        self.block(b);
                        self.nl();
                    }
                    None => self.out.push_str(";\n"),
                }
            }
        }
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self, b: &Block) {
        self.out.push_str("{\n");
        self.indent += 1;
        for s in &b.stmts {
            self.line_start();
            self.stmt(s);
            self.nl();
        }
        self.indent -= 1;
        self.line_start();
        self.out.push('}');
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::If { cond, then_blk, else_blk, .. } => {
                self.out.push_str("if (");
                self.expr(cond);
                self.out.push_str(") ");
                self.block(then_blk);
                if let Some(e) = else_blk {
                    self.out.push_str(" else ");
                    self.block(e);
                }
            }
            Stmt::While { cond, body, .. } => {
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push_str(") ");
                self.block(body);
            }
            Stmt::DoWhile { cond, body, .. } => {
                self.out.push_str("do ");
                self.block(body);
                self.out.push_str(" while (");
                self.expr(cond);
                self.out.push_str(");");
            }
            Stmt::For { init, cond, step, body, .. } => {
                self.out.push_str("for (");
                if let Some(s) = init {
                    self.simple_stmt(s);
                }
                self.out.push_str("; ");
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(s) = step {
                    self.simple_stmt(s);
                }
                self.out.push_str(") ");
                self.block(body);
            }
            Stmt::Return(v, _) => {
                self.out.push_str("return");
                if let Some(e) = v {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push(';');
            }
            Stmt::Break(_) => self.out.push_str("break;"),
            Stmt::Continue(_) => self.out.push_str("continue;"),
            Stmt::Block(b) => self.block(b),
            simple => {
                self.simple_stmt(simple);
                self.out.push(';');
            }
        }
    }

    /// Declaration / assignment / expression statement, *without* the
    /// trailing semicolon — `for (...)` headers reuse this.
    fn simple_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { ty, name, is_const, init, .. } => {
                self.decl(ty, name, *is_const);
                if let Some(e) = init {
                    self.out.push_str(" = ");
                    self.expr(e);
                }
            }
            Stmt::Assign { target, value, .. } => {
                self.expr(target);
                self.out.push_str(" = ");
                self.expr(value);
            }
            Stmt::Expr(e) => self.expr(e),
            other => {
                // Unreachable from parser output; print a diagnostic
                // placeholder rather than panicking mid-minimization.
                let _ = write!(self.out, "/* non-simple stmt {other:?} */");
            }
        }
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::IntLit(v, _) => {
                if *v < 0 {
                    // `-N` would reparse as Unary(Neg, ...); the
                    // two's-complement hex spelling reparses to the same
                    // IntLit (C unsigned-wrap semantics, see token.rs).
                    let _ = write!(self.out, "{:#x}", *v as u64);
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            Expr::FloatLit(v, _) => {
                let s = format!("{v:?}");
                // The lexer has no exponent/inf/nan forms; fall back to a
                // plain expansion for values outside its grammar.
                if s.contains(['e', 'E', 'n', 'i']) {
                    let _ = write!(self.out, "{v:.10}");
                } else if s.contains('.') {
                    self.out.push_str(&s);
                } else {
                    let _ = write!(self.out, "{s}.0");
                }
            }
            Expr::StrLit(s, _) => {
                self.out.push('"');
                for c in s.chars() {
                    match c {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '\0' => self.out.push_str("\\0"),
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        other => self.out.push(other),
                    }
                }
                self.out.push('"');
            }
            Expr::CharLit(c, _) => {
                self.out.push('\'');
                match *c {
                    b'\n' => self.out.push_str("\\n"),
                    b'\t' => self.out.push_str("\\t"),
                    0 => self.out.push_str("\\0"),
                    b'\\' => self.out.push_str("\\\\"),
                    b'\'' => self.out.push_str("\\'"),
                    other => self.out.push(other as char),
                }
                self.out.push('\'');
            }
            Expr::BoolLit(b, _) => {
                self.out.push_str(if *b { "true" } else { "false" });
            }
            Expr::Null(_) => self.out.push_str("null"),
            Expr::Var(n, _) => self.out.push_str(n),
            Expr::Unary { op, expr, .. } => {
                self.out.push('(');
                self.out.push_str(match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "!",
                    UnOp::Deref => "*",
                    UnOp::AddrOf => "&",
                });
                self.expr(expr);
                self.out.push(')');
            }
            Expr::Binary { op, operands, .. } => {
                let (lhs, rhs) = &**operands;
                self.out.push('(');
                self.expr(lhs);
                let _ = write!(self.out, " {} ", bin_op_str(*op));
                self.expr(rhs);
                self.out.push(')');
            }
            Expr::Call { callee, args, .. } => {
                self.expr(callee);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a);
                }
                self.out.push(')');
            }
            Expr::Member { base, field, arrow, .. } => {
                self.expr(base);
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(field);
            }
            Expr::Index { base, index, .. } => {
                self.expr(base);
                self.out.push('[');
                self.expr(index);
                self.out.push(']');
            }
            Expr::Cast { ty, expr, .. } => {
                self.out.push('(');
                self.out.push('(');
                self.type_name(ty);
                self.out.push_str(") ");
                self.expr(expr);
                self.out.push(')');
            }
            Expr::Sizeof(ty, _) => {
                self.out.push_str("sizeof(");
                self.type_name(ty);
                self.out.push(')');
            }
        }
    }
}

fn bin_op_str(op: BinOpAst) -> &'static str {
    match op {
        BinOpAst::Add => "+",
        BinOpAst::Sub => "-",
        BinOpAst::Mul => "*",
        BinOpAst::Div => "/",
        BinOpAst::Rem => "%",
        BinOpAst::BitAnd => "&",
        BinOpAst::BitOr => "|",
        BinOpAst::BitXor => "^",
        BinOpAst::Shl => "<<",
        BinOpAst::Shr => ">>",
        BinOpAst::LogAnd => "&&",
        BinOpAst::LogOr => "||",
        BinOpAst::Eq => "==",
        BinOpAst::Ne => "!=",
        BinOpAst::Lt => "<",
        BinOpAst::Le => "<=",
        BinOpAst::Gt => ">",
        BinOpAst::Ge => ">=",
    }
}

// ---------------------------------------------------------------------------
// Structural equality modulo line numbers
// ---------------------------------------------------------------------------

/// Structural equality of translation units ignoring source lines — the
/// `≡` in the round-trip contract (`parse(print(x)) ≡ x`). Line numbers
/// are presentation metadata the printer deliberately renumbers.
pub fn ast_eq_items(a: &[Item], b: &[Item]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| item_eq(x, y))
}

fn item_eq(a: &Item, b: &Item) -> bool {
    match (a, b) {
        (
            Item::Struct { name: n1, fields: f1, .. },
            Item::Struct { name: n2, fields: f2, .. },
        ) => {
            n1 == n2
                && f1.len() == f2.len()
                && f1.iter().zip(f2).all(|(x, y)| {
                    x.ty == y.ty && x.name == y.name && x.is_const == y.is_const
                })
        }
        (
            Item::Global { ty: t1, name: n1, is_const: c1, init: i1, .. },
            Item::Global { ty: t2, name: n2, is_const: c2, init: i2, .. },
        ) => t1 == t2 && n1 == n2 && c1 == c2 && opt_expr_eq(i1.as_ref(), i2.as_ref()),
        (
            Item::Func { ret: r1, name: n1, params: p1, body: b1, is_extern: e1, .. },
            Item::Func { ret: r2, name: n2, params: p2, body: b2, is_extern: e2, .. },
        ) => {
            r1 == r2
                && n1 == n2
                && e1 == e2
                && p1.len() == p2.len()
                && p1.iter().zip(p2.iter()).all(|(x, y)| {
                    x.ty == y.ty && x.name == y.name && x.is_const == y.is_const
                })
                && match (b1, b2) {
                    (None, None) => true,
                    (Some(x), Some(y)) => block_eq(x, y),
                    _ => false,
                }
        }
        _ => false,
    }
}

fn block_eq(a: &Block, b: &Block) -> bool {
    a.stmts.len() == b.stmts.len() && a.stmts.iter().zip(&b.stmts).all(|(x, y)| stmt_eq(x, y))
}

fn opt_stmt_eq(a: Option<&Stmt>, b: Option<&Stmt>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => stmt_eq(x, y),
        _ => false,
    }
}

fn stmt_eq(a: &Stmt, b: &Stmt) -> bool {
    match (a, b) {
        (
            Stmt::Decl { ty: t1, name: n1, is_const: c1, init: i1, .. },
            Stmt::Decl { ty: t2, name: n2, is_const: c2, init: i2, .. },
        ) => t1 == t2 && n1 == n2 && c1 == c2 && opt_expr_eq(i1.as_ref(), i2.as_ref()),
        (Stmt::Expr(x), Stmt::Expr(y)) => expr_eq(x, y),
        (
            Stmt::Assign { target: t1, value: v1, .. },
            Stmt::Assign { target: t2, value: v2, .. },
        ) => expr_eq(t1, t2) && expr_eq(v1, v2),
        (
            Stmt::If { cond: c1, then_blk: t1, else_blk: e1, .. },
            Stmt::If { cond: c2, then_blk: t2, else_blk: e2, .. },
        ) => {
            expr_eq(c1, c2)
                && block_eq(t1, t2)
                && match (e1, e2) {
                    (None, None) => true,
                    (Some(x), Some(y)) => block_eq(x, y),
                    _ => false,
                }
        }
        (
            Stmt::While { cond: c1, body: b1, .. },
            Stmt::While { cond: c2, body: b2, .. },
        ) => expr_eq(c1, c2) && block_eq(b1, b2),
        (
            Stmt::DoWhile { cond: c1, body: b1, .. },
            Stmt::DoWhile { cond: c2, body: b2, .. },
        ) => expr_eq(c1, c2) && block_eq(b1, b2),
        (
            Stmt::For { init: i1, cond: c1, step: s1, body: b1, .. },
            Stmt::For { init: i2, cond: c2, step: s2, body: b2, .. },
        ) => {
            opt_stmt_eq(i1.as_deref(), i2.as_deref())
                && opt_expr_eq(c1.as_ref(), c2.as_ref())
                && opt_stmt_eq(s1.as_deref(), s2.as_deref())
                && block_eq(b1, b2)
        }
        (Stmt::Return(v1, _), Stmt::Return(v2, _)) => opt_expr_eq(v1.as_ref(), v2.as_ref()),
        (Stmt::Break(_), Stmt::Break(_)) | (Stmt::Continue(_), Stmt::Continue(_)) => true,
        (Stmt::Block(x), Stmt::Block(y)) => block_eq(x, y),
        _ => false,
    }
}

fn opt_expr_eq(a: Option<&Expr>, b: Option<&Expr>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => expr_eq(x, y),
        _ => false,
    }
}

/// Expression equality modulo line numbers.
pub fn expr_eq(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::IntLit(x, _), Expr::IntLit(y, _)) => x == y,
        (Expr::FloatLit(x, _), Expr::FloatLit(y, _)) => x.to_bits() == y.to_bits(),
        (Expr::StrLit(x, _), Expr::StrLit(y, _)) => x == y,
        (Expr::CharLit(x, _), Expr::CharLit(y, _)) => x == y,
        (Expr::BoolLit(x, _), Expr::BoolLit(y, _)) => x == y,
        (Expr::Null(_), Expr::Null(_)) => true,
        (Expr::Var(x, _), Expr::Var(y, _)) => x == y,
        (
            Expr::Unary { op: o1, expr: e1, .. },
            Expr::Unary { op: o2, expr: e2, .. },
        ) => o1 == o2 && expr_eq(e1, e2),
        (
            Expr::Binary { op: o1, operands: a, .. },
            Expr::Binary { op: o2, operands: b, .. },
        ) => o1 == o2 && expr_eq(&a.0, &b.0) && expr_eq(&a.1, &b.1),
        (
            Expr::Call { callee: c1, args: a1, .. },
            Expr::Call { callee: c2, args: a2, .. },
        ) => {
            expr_eq(c1, c2)
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| expr_eq(x, y))
        }
        (
            Expr::Member { base: b1, field: f1, arrow: a1, .. },
            Expr::Member { base: b2, field: f2, arrow: a2, .. },
        ) => f1 == f2 && a1 == a2 && expr_eq(b1, b2),
        (
            Expr::Index { base: b1, index: i1, .. },
            Expr::Index { base: b2, index: i2, .. },
        ) => expr_eq(b1, b2) && expr_eq(i1, i2),
        (
            Expr::Cast { ty: t1, expr: e1, .. },
            Expr::Cast { ty: t2, expr: e2, .. },
        ) => t1 == t2 && expr_eq(e1, e2),
        (Expr::Sizeof(t1, _), Expr::Sizeof(t2, _)) => t1 == t2,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn roundtrip(src: &str) {
        let items = parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let printed = print_items(&items);
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert!(
            ast_eq_items(&items, &reparsed),
            "round-trip changed the AST:\n-- original --\n{src}\n-- printed --\n{printed}"
        );
    }

    #[test]
    fn roundtrips_core_constructs() {
        roundtrip(
            r#"
            struct node { int key; int (*fp)(); struct node* next; };
            struct outer { struct node inner; long** pp; const long v; };
            int g_count = 3;
            const char* banner = "hi\n\t\"q\"";
            extern void* dlopen(char* name, int flags);
            long hook(long x) { return x * 2 + 1; }
            int main() {
                struct node* p = (struct node*) malloc(sizeof(struct node));
                p->fp = null;
                int buf[8];
                buf[3] = 'x';
                int* q = &buf[0];
                q = q + 1;
                long (*h)(long x) = hook;
                long acc = h(4) + (long) g_count;
                if (acc > 3 && *q == 0) { acc = acc - 1; } else { acc = acc / 2; }
                while (acc > 100) { acc = acc / 2; break; }
                do { acc = acc + 1; } while (acc < 0);
                for (int i = 0; i < 4; i = i + 1) { continue; }
                { int shadow = 1; acc = acc + shadow; }
                print_int(acc);
                return 0;
            }
        "#,
        );
    }

    #[test]
    fn roundtrips_precedence_and_unary_nesting() {
        roundtrip("int f(int a, int b) { return -a * !(b + 2) % 3 << 1 ^ (a | b) & 7; }");
        roundtrip("void g(int** pp) { **pp = **pp + 1; (*pp)[0] = 7; }");
        roundtrip("int h() { return sizeof(struct x*) + sizeof(int (*)(long)); }");
        roundtrip("double d() { return 3.5 - -0.25; }");
    }

    #[test]
    fn roundtrips_for_header_variants() {
        roundtrip("int f() { for (;;) { break; } return 0; }");
        roundtrip("int g() { int i = 0; for (; i < 3;) { i = i + 1; } return i; }");
        roundtrip("int h() { for (int i = 9; ; i = i - 1) { if (i == 0) { break; } } return 1; }");
    }

    #[test]
    fn negative_int_literal_prints_as_hex_and_roundtrips() {
        // A folded negative literal — unreachable from the parser but
        // reachable from the minimizer — must survive print→parse.
        let items = vec![Item::Global {
            ty: AstType::Long,
            name: "g".into(),
            is_const: false,
            init: Some(Expr::IntLit(-5, 1)),
            line: 1,
        }];
        let printed = print_items(&items);
        assert!(printed.contains("0xfffffffffffffffb"), "{printed}");
        let reparsed = parse(&printed).unwrap();
        assert!(ast_eq_items(&items, &reparsed), "{printed}");
    }

    #[test]
    fn compound_assignment_desugars_then_roundtrips() {
        // `x += 2` parses to `x = x + 2`; the printed form must reparse to
        // the same desugared tree (print→parse is a fixpoint).
        let a = parse("int f() { int x = 1; x += 2; x++; return x; }").unwrap();
        let printed = print_items(&a);
        assert!(!printed.contains("+="), "{printed}");
        let b = parse(&printed).unwrap();
        assert!(ast_eq_items(&a, &b), "{printed}");
    }

    #[test]
    fn printed_source_compiles() {
        let src = r#"
            struct s0 { long v; struct s0* peer; long (*hook)(long x); };
            long bump(long x) { return x + 1; }
            int main() {
                struct s0* a = (struct s0*) malloc(sizeof(struct s0));
                a->hook = bump;
                a->v = a->hook(4);
                print_int(a->v);
                return 0;
            }
        "#;
        let printed = print_items(&parse(src).unwrap());
        crate::compile(&printed, "printed").unwrap_or_else(|e| panic!("{e}\n{printed}"));
    }
}
