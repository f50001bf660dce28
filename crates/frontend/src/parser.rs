//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::error::CompileError;
use crate::token::{lex, SpannedTok, Tok};

/// Parses a MiniC translation unit.
///
/// # Errors
/// Returns the first lexical or syntactic error encountered.
pub fn parse(src: &str) -> Result<Vec<Item>, CompileError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    p.translation_unit()
}

/// Nesting budget, in levels, for statements, expressions, function-pointer
/// types and pointer stars. Every later pass walks the AST recursively, so
/// the parser is where unbounded nesting must stop: deeper input gets a
/// [`CompileError`] instead of exhausting the stack (an unoptimized build
/// spends about 6 KiB of stack per expression level, so the deepest
/// admitted expression fits a 1 MiB thread more than twice over).
/// Generated programs, the samples and the fuzz corpus nest at most 10
/// levels.
const MAX_NESTING: u32 = 64;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Current nesting depth, bounded by [`MAX_NESTING`].
    depth: u32,
}

impl Parser {
    /// Runs `f` one nesting level deeper, failing once the budget is spent.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        if self.depth >= MAX_NESTING {
            return Err(nesting_error(self.line()));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// Moves the current token out of the stream and advances. The one
    /// backtracking point (cast or parenthesized expression) rewinds over
    /// a `(` only, which it bumps rather than takes.
    fn take(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.toks[self.pos].tok, Tok::Eof);
        self.bump();
        t
    }

    fn eat(&mut self, want: &Tok) -> Result<(), CompileError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(CompileError::new(
                self.line(),
                format!("expected `{want}`, found `{}`", self.peek()),
            ))
        }
    }

    fn eat_ident(&mut self) -> Result<String, CompileError> {
        if !matches!(self.peek(), Tok::Ident(_)) {
            return Err(CompileError::new(
                self.line(),
                format!("expected identifier, found `{}`", self.peek()),
            ));
        }
        let Tok::Ident(s) = self.take() else {
            unreachable!("peeked an identifier")
        };
        Ok(s)
    }

    /// Whether the current token can begin a type.
    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            Tok::KwVoid
                | Tok::KwBool
                | Tok::KwChar
                | Tok::KwShort
                | Tok::KwInt
                | Tok::KwLong
                | Tok::KwDouble
                | Tok::KwStruct
                | Tok::KwConst
        )
    }

    // ---- types -----------------------------------------------------------

    /// Parses `[const] base *...` and returns (type, is_const).
    fn type_prefix(&mut self) -> Result<(AstType, bool), CompileError> {
        let mut is_const = false;
        if self.peek() == &Tok::KwConst {
            self.bump();
            is_const = true;
        }
        let base = match self.take() {
            Tok::KwVoid => AstType::Void,
            Tok::KwBool => AstType::Bool,
            Tok::KwChar => AstType::Char,
            Tok::KwShort => AstType::Short,
            Tok::KwInt => AstType::Int,
            Tok::KwLong => AstType::Long,
            Tok::KwDouble => AstType::Double,
            Tok::KwStruct => AstType::Struct(self.eat_ident()?),
            other => {
                return Err(CompileError::new(
                    self.line(),
                    format!("expected a type, found `{other}`"),
                ))
            }
        };
        let mut ty = base;
        let mut stars = 0;
        while self.peek() == &Tok::Star {
            stars += 1;
            if stars > MAX_NESTING {
                return Err(nesting_error(self.line()));
            }
            self.bump();
            ty = ty.ptr();
        }
        // `T* const` / `T const` postfix const also accepted.
        if self.peek() == &Tok::KwConst {
            self.bump();
            is_const = true;
        }
        Ok((ty, is_const))
    }

    /// Parses a full abstract type (for casts and sizeof): a type prefix,
    /// optionally a function-pointer suffix `(*)(params)`.
    fn abstract_type(&mut self) -> Result<AstType, CompileError> {
        self.nested(Self::abstract_type_body)
    }

    fn abstract_type_body(&mut self) -> Result<AstType, CompileError> {
        let (ty, _) = self.type_prefix()?;
        if self.peek() == &Tok::LParen && self.peek2() == &Tok::Star {
            // RET (*)(PARAMS)
            self.bump(); // (
            self.eat(&Tok::Star)?;
            self.eat(&Tok::RParen)?;
            let params = self.fnptr_params()?;
            return Ok(AstType::FuncPtr { ret: Box::new(ty), params });
        }
        Ok(ty)
    }

    fn fnptr_params(&mut self) -> Result<Vec<AstType>, CompileError> {
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                let t = self.abstract_type()?;
                // parameter name is optional in a function-pointer type
                if let Tok::Ident(_) = self.peek() {
                    self.bump();
                }
                params.push(t);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(params)
    }

    /// Parses a declarator after a type prefix. Handles three forms:
    /// `name`, `name[N]`, and `(*name)(params)` (function pointer).
    /// Returns (full type, name).
    fn declarator(&mut self, base: AstType) -> Result<(AstType, String), CompileError> {
        if self.peek() == &Tok::LParen && self.peek2() == &Tok::Star {
            self.bump(); // (
            self.eat(&Tok::Star)?;
            let name = self.eat_ident()?;
            self.eat(&Tok::RParen)?;
            let params = self.fnptr_params()?;
            return Ok((AstType::FuncPtr { ret: Box::new(base), params }, name));
        }
        let name = self.eat_ident()?;
        if self.peek() == &Tok::LBracket {
            self.bump();
            let n = match self.take() {
                Tok::Int(v) if v > 0 => v as u64,
                other => {
                    return Err(CompileError::new(
                        self.line(),
                        format!("expected positive array length, found `{other}`"),
                    ))
                }
            };
            self.eat(&Tok::RBracket)?;
            return Ok((AstType::Array(Box::new(base), n), name));
        }
        Ok((base, name))
    }

    // ---- items -----------------------------------------------------------

    fn translation_unit(&mut self) -> Result<Vec<Item>, CompileError> {
        let mut items = Vec::new();
        while self.peek() != &Tok::Eof {
            items.push(self.item()?);
        }
        Ok(items)
    }

    fn item(&mut self) -> Result<Item, CompileError> {
        let line = self.line();
        // struct definition: `struct NAME {` (otherwise it's a type use)
        if self.peek() == &Tok::KwStruct {
            if let Tok::Ident(_) = self.peek2() {
                let brace = &self.toks[(self.pos + 2).min(self.toks.len() - 1)].tok;
                if brace == &Tok::LBrace {
                    return self.struct_def();
                }
            }
        }
        let is_extern = if self.peek() == &Tok::KwExtern {
            self.bump();
            true
        } else {
            false
        };
        let (base, is_const) = self.type_prefix()?;
        let (ty, name) = self.declarator(base)?;
        if self.peek() == &Tok::LParen && !matches!(ty, AstType::FuncPtr { .. }) {
            // function definition/declaration
            let params = self.param_list()?;
            if is_extern || self.peek() == &Tok::Semi {
                self.eat(&Tok::Semi)?;
                return Ok(Item::Func { ret: ty, name, params, body: None, is_extern: true, line });
            }
            let body = self.block()?;
            return Ok(Item::Func { ret: ty, name, params, body: Some(body), is_extern: false, line });
        }
        // global variable
        let init = if self.peek() == &Tok::Assign {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        self.eat(&Tok::Semi)?;
        Ok(Item::Global { ty, name, is_const, init, line })
    }

    fn struct_def(&mut self) -> Result<Item, CompileError> {
        let line = self.line();
        self.eat(&Tok::KwStruct)?;
        let name = self.eat_ident()?;
        self.eat(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != &Tok::RBrace {
            let fline = self.line();
            let (base, is_const) = self.type_prefix()?;
            let (ty, fname) = self.declarator(base)?;
            self.eat(&Tok::Semi)?;
            fields.push(FieldDecl { ty, name: fname, is_const, line: fline });
        }
        self.eat(&Tok::RBrace)?;
        self.eat(&Tok::Semi)?;
        Ok(Item::Struct { name, fields, line })
    }

    fn param_list(&mut self) -> Result<Vec<Param>, CompileError> {
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Tok::RParen {
            // `(void)` empty parameter list
            if self.peek() == &Tok::KwVoid && self.peek2() == &Tok::RParen {
                self.bump();
            } else {
                loop {
                    let line = self.line();
                    let (base, is_const) = self.type_prefix()?;
                    let (ty, name) = self.declarator(base)?;
                    params.push(Param { ty, name, is_const, line });
                    if self.peek() == &Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(params)
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self) -> Result<Block, CompileError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            stmts.push(self.stmt()?);
        }
        self.eat(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::KwIf => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let then_blk = self.block_or_single()?;
                let else_blk = if self.peek() == &Tok::KwElse {
                    self.bump();
                    Some(self.block_or_single()?)
                } else {
                    None
                };
                Ok(Stmt::If { cond, then_blk, else_blk, line })
            }
            Tok::KwWhile => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::KwDo => {
                self.bump();
                let body = self.block_or_single()?;
                self.eat(&Tok::KwWhile)?;
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::DoWhile { cond, body, line })
            }
            Tok::KwFor => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let init = if self.peek() == &Tok::Semi {
                    self.bump();
                    None
                } else {
                    let s = self.simple_stmt()?;
                    self.eat(&Tok::Semi)?;
                    Some(Box::new(s))
                };
                let cond = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                let step = if self.peek() == &Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                self.eat(&Tok::RParen)?;
                let body = self.block_or_single()?;
                Ok(Stmt::For { init, cond, step, body, line })
            }
            Tok::KwReturn => {
                self.bump();
                let v = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Return(v, line))
            }
            Tok::KwBreak => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Break(line))
            }
            Tok::KwContinue => {
                self.bump();
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Continue(line))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.eat(&Tok::Semi)?;
                Ok(s)
            }
        }
    }

    fn block_or_single(&mut self) -> Result<Block, CompileError> {
        if self.peek() == &Tok::LBrace {
            self.block()
        } else {
            Ok(Block { stmts: vec![self.stmt()?] })
        }
    }

    /// A declaration, assignment, or expression statement (no trailing
    /// semicolon — the caller owns it, so `for (...)` headers can reuse
    /// this).
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        if self.at_type() {
            let (base, is_const) = self.type_prefix()?;
            let (ty, name) = self.declarator(base)?;
            let init = if self.peek() == &Tok::Assign {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Decl { ty, name, is_const, init, line });
        }
        let e = self.expr()?;
        let (op, one) = match self.peek() {
            Tok::Assign => {
                self.bump();
                let value = self.expr()?;
                return Ok(Stmt::Assign {
                    target: e,
                    value,
                    line,
                });
            }
            Tok::PlusAssign => (BinOpAst::Add, None),
            Tok::MinusAssign => (BinOpAst::Sub, None),
            Tok::StarAssign => (BinOpAst::Mul, None),
            Tok::PlusPlus => (BinOpAst::Add, Some(Expr::IntLit(1, line))),
            Tok::MinusMinus => (BinOpAst::Sub, Some(Expr::IntLit(1, line))),
            _ => return Ok(Stmt::Expr(e)),
        };
        self.bump();
        // `x op= e` desugars to `x = x op e`, and `x++` to `x = x + 1`.
        let rhs = match one {
            Some(one) => one,
            None => self.expr()?,
        };
        let value = Expr::Binary {
            op,
            lhs: Box::new(e.clone()),
            rhs: Box::new(rhs),
            line,
        };
        Ok(Stmt::Assign {
            target: e,
            value,
            line,
        })
    }

    // ---- expressions (precedence climbing) --------------------------------

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.bin_expr(0)
    }

    /// Precedence climbing: an operand, then every binary operator that
    /// binds at least as tightly as `min`, each with a right operand that
    /// binds tighter (so all of them associate to the left). One call per
    /// operand plus one per rise in precedence, at most ten deep.
    fn bin_expr(&mut self, min: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = bin_op(self.peek()).filter(|&(_, p)| p >= min) {
            let line = self.line();
            self.bump();
            let rhs = self.bin_expr(prec + 1)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), line };
        }
        Ok(lhs)
    }

    /// Every unbounded expression recursion (parentheses, call
    /// arguments, indices, unary operators, casts) passes through here,
    /// so this is where expressions spend the nesting budget.
    fn unary(&mut self) -> Result<Expr, CompileError> {
        self.nested(Self::unary_body)
    }

    fn unary_body(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            Tok::Star => UnOp::Deref,
            Tok::Amp => UnOp::AddrOf,
            Tok::KwSizeof => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let ty = self.abstract_type()?;
                self.eat(&Tok::RParen)?;
                return Ok(Expr::Sizeof(ty, line));
            }
            Tok::LParen => {
                // cast or parenthesized expression
                let save = self.pos;
                self.bump();
                if self.at_type() {
                    let ty = self.abstract_type()?;
                    self.eat(&Tok::RParen)?;
                    let inner = self.unary()?;
                    return Ok(Expr::Cast { ty, expr: Box::new(inner), line });
                }
                self.pos = save;
                return self.postfix();
            }
            _ => return self.postfix(),
        };
        self.bump();
        Ok(Expr::Unary {
            op,
            expr: Box::new(self.unary()?),
            line,
        })
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            let arrow = match self.peek() {
                Tok::LParen => {
                    let args = self.call_args()?;
                    e = Expr::Call { callee: Box::new(e), args, line };
                    continue;
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.eat(&Tok::RBracket)?;
                    e = Expr::Index { base: Box::new(e), index: Box::new(idx), line };
                    continue;
                }
                Tok::Dot => false,
                Tok::Arrow => true,
                _ => return Ok(e),
            };
            self.bump();
            let field = self.eat_ident()?;
            e = Expr::Member {
                base: Box::new(e),
                field,
                arrow,
                line,
            };
        }
    }

    /// A call's parenthesized argument list.
    fn call_args(&mut self) -> Result<Vec<Expr>, CompileError> {
        self.eat(&Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Tok::RParen {
            loop {
                args.push(self.expr()?);
                if self.peek() != &Tok::Comma {
                    break;
                }
                self.bump();
            }
        }
        self.eat(&Tok::RParen)?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.take() {
            Tok::Int(v) => Ok(Expr::IntLit(v, line)),
            Tok::Float(v) => Ok(Expr::FloatLit(v, line)),
            Tok::Str(s) => Ok(Expr::StrLit(s, line)),
            Tok::Char(c) => Ok(Expr::CharLit(c, line)),
            Tok::KwTrue => Ok(Expr::BoolLit(true, line)),
            Tok::KwFalse => Ok(Expr::BoolLit(false, line)),
            Tok::KwNull => Ok(Expr::Null(line)),
            Tok::Ident(name) => Ok(Expr::Var(name, line)),
            Tok::LParen => {
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::new(
                line,
                format!("expected expression, found `{other}`"),
            )),
        }
    }
}

/// A binary operator token's operator and precedence, loosest (0) to
/// tightest (9).
fn bin_op(t: &Tok) -> Option<(BinOpAst, u8)> {
    Some(match t {
        Tok::PipePipe => (BinOpAst::LogOr, 0),
        Tok::AmpAmp => (BinOpAst::LogAnd, 1),
        Tok::Pipe => (BinOpAst::BitOr, 2),
        Tok::Caret => (BinOpAst::BitXor, 3),
        Tok::Amp => (BinOpAst::BitAnd, 4),
        Tok::EqEq => (BinOpAst::Eq, 5),
        Tok::NotEq => (BinOpAst::Ne, 5),
        Tok::Lt => (BinOpAst::Lt, 6),
        Tok::Le => (BinOpAst::Le, 6),
        Tok::Gt => (BinOpAst::Gt, 6),
        Tok::Ge => (BinOpAst::Ge, 6),
        Tok::Shl => (BinOpAst::Shl, 7),
        Tok::Shr => (BinOpAst::Shr, 7),
        Tok::Plus => (BinOpAst::Add, 8),
        Tok::Minus => (BinOpAst::Sub, 8),
        Tok::Star => (BinOpAst::Mul, 9),
        Tok::Slash => (BinOpAst::Div, 9),
        Tok::Percent => (BinOpAst::Rem, 9),
        _ => return None,
    })
}

#[cold]
fn nesting_error(line: u32) -> CompileError {
    CompileError::new(line, format!("nesting deeper than {MAX_NESTING} levels"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_struct_and_function() {
        let src = r#"
            struct node { int key; int (*fp)(); struct node* next; };
            int main() {
                struct node* p = (struct node*) malloc(sizeof(struct node));
                p->key = 1;
                return p->key;
            }
        "#;
        let items = parse(src).unwrap();
        assert_eq!(items.len(), 2);
        match &items[0] {
            Item::Struct { name, fields, .. } => {
                assert_eq!(name, "node");
                assert_eq!(fields.len(), 3);
                assert!(matches!(fields[1].ty, AstType::FuncPtr { .. }));
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn parse_extern_and_globals() {
        let src = r#"
            extern void* dlopen(char* name, int flags);
            const char* msg = "hello";
            int counter;
        "#;
        let items = parse(src).unwrap();
        assert!(matches!(&items[0], Item::Func { is_extern: true, body: None, .. }));
        assert!(matches!(&items[1], Item::Global { is_const: true, .. }));
        assert!(matches!(&items[2], Item::Global { init: None, .. }));
    }

    #[test]
    fn parse_control_flow() {
        let src = r#"
            int f(int n) {
                int acc = 0;
                for (int i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { acc = acc + i; } else acc = acc - 1;
                }
                while (acc > 100) { acc = acc / 2; }
                return acc;
            }
        "#;
        let items = parse(src).unwrap();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn parse_pointer_expressions() {
        let src = r#"
            void g(int** pp, char* s) {
                **pp = 5;
                int* q = *pp;
                q = q + 1;
                s[3] = 'x';
                (*pp)[0] = 7;
            }
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn parse_function_pointer_declarations() {
        let src = r#"
            void h() {
                int (*cb)(int x, int y) = null;
                void (*v)() = null;
                cb(1, 2);
            }
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn parse_casts_vs_parens() {
        let src = r#"
            void k(void* v) {
                int* a = (int*) v;
                int b = (1 + 2) * 3;
                void (*f)(void* p) = (void (*)(void* p)) v;
            }
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn precedence_shapes_tree() {
        let items = parse("int f() { return 1 + 2 * 3; }").unwrap();
        let Item::Func { body: Some(b), .. } = &items[0] else { panic!() };
        let Stmt::Return(Some(Expr::Binary { op, rhs, .. }), _) = &b.stmts[0] else {
            panic!()
        };
        assert_eq!(*op, BinOpAst::Add);
        assert!(matches!(**rhs, Expr::Binary { op: BinOpAst::Mul, .. }));
    }

    fn nested_return(levels: usize) -> String {
        format!("int main() {{ return {}1{}; }}", "(".repeat(levels), ")".repeat(levels))
    }

    #[test]
    fn nesting_is_budgeted() {
        // The deepest expression the budget admits (the statement takes one
        // level, the outermost operand another) parses on a 1 MiB thread in
        // an unoptimized build, which needs about 0.4 MiB for it; ten nested
        // calls per operand needed about 1.1 MiB. One level more is refused.
        let deepest = std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(|| {
                let ok = parse(&nested_return(MAX_NESTING as usize - 2)).map(|_| ());
                (
                    ok,
                    parse(&nested_return(MAX_NESTING as usize - 1)).map(|_| ()),
                )
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(deepest.0, Ok(()));
        assert!(deepest
            .1
            .unwrap_err()
            .msg
            .contains("nesting deeper than 64 levels"));
        for src in [
            nested_return(200_000),
            format!("int main() {{ {} }}", "{".repeat(200_000)),
            format!("int main() {{ return {}1; }}", "- ".repeat(200_000)),
            format!("int main() {{ int{} p = null; return 0; }}", "*".repeat(200_000)),
            format!("int main() {{ return sizeof(int (*)({}); }}", "int (*)(".repeat(200_000)),
        ] {
            let err = parse(&src).unwrap_err();
            assert!(err.msg.contains("nesting deeper than 64 levels"), "{err}");
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse("int f() {\n  return ;;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
