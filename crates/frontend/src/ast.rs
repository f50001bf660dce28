//! The MiniC abstract syntax tree.
//!
//! MiniC is the C subset the reproduction compiles: it covers every
//! construct the paper's analysis distinguishes — struct types (including
//! self-referential and nested ones), pointers at any depth, function
//! pointers, explicit casts, `const` permissions, globals, heap allocation,
//! pointer arithmetic, and external (uninstrumented) functions.

use std::rc::Rc;

/// An identifier: a variable, function, struct or field name. The parser
/// interns each distinct spelling once per translation unit, so every use
/// of a name shares one allocation. An AST is parsed and lowered on one
/// thread, so the count needs no atomics.
pub type Name = Rc<str>;

/// A syntactic type, before resolution against the IR type table.
#[derive(Debug, Clone, PartialEq)]
pub enum AstType {
    /// `void`
    Void,
    /// `bool`
    Bool,
    /// `char`
    Char,
    /// `short`
    Short,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `double`
    Double,
    /// `struct NAME`
    Struct(Name),
    /// `T*`
    Ptr(Box<AstType>),
    /// `T name[N]` — only in declarations.
    Array(Box<AstType>, u64),
    /// `RET (*)(PARAMS)` — a function-pointer type.
    FuncPtr {
        /// Return type.
        ret: Box<AstType>,
        /// Parameter types.
        params: Vec<AstType>,
    },
}

impl AstType {
    /// Wraps this type in a pointer.
    pub fn ptr(self) -> AstType {
        AstType::Ptr(Box::new(self))
    }
}

/// A struct field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field type.
    pub ty: AstType,
    /// Field name.
    pub name: Name,
    /// Declared `const`.
    pub is_const: bool,
    /// Source line.
    pub line: u32,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: AstType,
    /// Parameter name.
    pub name: Name,
    /// Declared `const`.
    pub is_const: bool,
    /// Source line.
    pub line: u32,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `struct NAME { fields };`
    Struct {
        /// Struct name.
        name: Name,
        /// Field declarations.
        fields: Vec<FieldDecl>,
        /// Source line.
        line: u32,
    },
    /// A global variable definition.
    Global {
        /// Declared type.
        ty: AstType,
        /// Name.
        name: Name,
        /// Declared `const`.
        is_const: bool,
        /// Optional initializer (constant expressions only).
        init: Option<Expr>,
        /// Source line.
        line: u32,
    },
    /// A function definition or `extern` declaration.
    Func {
        /// Return type.
        ret: AstType,
        /// Name.
        name: Name,
        /// Parameters.
        params: Vec<Param>,
        /// Body; `None` for `extern` declarations (uninstrumented library
        /// functions — the paper's "libc").
        body: Option<Block>,
        /// Whether declared `extern`.
        is_extern: bool,
        /// Source line.
        line: u32,
    },
}

/// A brace-delimited statement list. Per the paper (§4.4), a compound
/// statement does **not** open a new STI scope; blocks exist purely for
/// control flow.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements.
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A local variable declaration.
    Decl {
        /// Declared type.
        ty: AstType,
        /// Name.
        name: Name,
        /// Declared `const`.
        is_const: bool,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source line.
        line: u32,
    },
    /// An expression evaluated for effect (usually a call).
    Expr(Expr),
    /// `target = value;` — target must be an lvalue.
    Assign {
        /// Assignment target.
        target: Expr,
        /// Assigned value.
        value: Expr,
        /// Source line.
        line: u32,
    },
    /// `if (cond) then_blk [else else_blk]`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_blk: Block,
        /// Optional else branch.
        else_blk: Option<Block>,
        /// Source line.
        line: u32,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Condition, checked after each iteration.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `for (init; cond; step) body`
    For {
        /// Optional init statement (decl or assignment).
        init: Option<Box<Stmt>>,
        /// Optional condition.
        cond: Option<Expr>,
        /// Optional step statement.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
        /// Source line.
        line: u32,
    },
    /// `return [expr];`
    Return(Option<Expr>, u32),
    /// `break;`
    Break(u32),
    /// `continue;`
    Continue(u32),
    /// A nested block.
    Block(Block),
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Pointer dereference `*e`.
    Deref,
    /// Address-of `&e`.
    AddrOf,
}

/// A binary operator (C spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // one-to-one with C operators
pub enum BinOpAst {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    LogAnd,
    LogOr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, u32),
    /// Float literal.
    FloatLit(f64, u32),
    /// String literal.
    StrLit(String, u32),
    /// Character literal.
    CharLit(u8, u32),
    /// `true`/`false`.
    BoolLit(bool, u32),
    /// `null`.
    Null(u32),
    /// A variable (or function) reference.
    Var(Name, u32),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOpAst,
        /// Left and right operand, in one allocation.
        operands: Box<(Expr, Expr)>,
        /// Source line.
        line: u32,
    },
    /// A call; `callee` may be a function name ([`Expr::Var`]) or any
    /// expression evaluating to a function pointer.
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Source line.
        line: u32,
    },
    /// `base.field` (`arrow = false`) or `base->field` (`arrow = true`).
    Member {
        /// Base expression.
        base: Box<Expr>,
        /// Field name.
        field: Name,
        /// `->` vs `.`.
        arrow: bool,
        /// Source line.
        line: u32,
    },
    /// `base[index]`.
    Index {
        /// Base expression (array or pointer).
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `(T) expr`.
    Cast {
        /// Target type.
        ty: AstType,
        /// Operand.
        expr: Box<Expr>,
        /// Source line.
        line: u32,
    },
    /// `sizeof(T)`.
    Sizeof(AstType, u32),
}

impl Expr {
    /// The source line of an expression.
    pub fn line(&self) -> u32 {
        match self {
            Expr::IntLit(_, l)
            | Expr::FloatLit(_, l)
            | Expr::StrLit(_, l)
            | Expr::CharLit(_, l)
            | Expr::BoolLit(_, l)
            | Expr::Null(l)
            | Expr::Var(_, l)
            | Expr::Sizeof(_, l) => *l,
            Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Call { line, .. }
            | Expr::Member { line, .. }
            | Expr::Index { line, .. }
            | Expr::Cast { line, .. } => *line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_ptr_helper() {
        let t = AstType::Int.ptr().ptr();
        assert_eq!(
            t,
            AstType::Ptr(Box::new(AstType::Ptr(Box::new(AstType::Int))))
        );
    }

    #[test]
    fn expr_lines() {
        let e = Expr::Binary {
            op: BinOpAst::Add,
            operands: Box::new((Expr::IntLit(1, 3), Expr::IntLit(2, 3))),
            line: 3,
        };
        assert_eq!(e.line(), 3);
    }
}
