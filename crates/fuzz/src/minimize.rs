//! AST-level delta debugging.
//!
//! The reducer shrinks a failing program while insisting that every accepted
//! candidate reproduces the *same* failure class
//! ([`crate::oracle::FailureKind::class_key`]).
//! Candidates that stop compiling, start passing, or fail differently are
//! simply rejected — no validity analysis is needed, which is what makes
//! reducing over the AST (rather than source bytes) attractive: every
//! candidate is a syntactically well-formed program by construction, so the
//! oracle run is never wasted on parse noise.
//!
//! Five edit kinds, applied greedily to a fixpoint under an attempt budget:
//!
//! 1. drop a whole top-level item,
//! 2. drop a single statement (any nesting depth),
//! 3. unwrap a control statement (replace an `if`/loop/block with its body),
//! 4. collapse a trivial call (replace a call expression with its first
//!    argument, or `0` when it has none) — this drops a call-graph edge
//!    while keeping the statement, so failures triggered by the
//!    interprocedural optimizer's cross-function reasoning (`--opt ipo`
//!    summaries, inlining) still shrink toward small corpora instead of
//!    being pinned by the very call that provoked them,
//! 5. simplify a statement's expression (binary → lhs, cast/negation →
//!    operand).

use crate::oracle::check_items;
use rsti_frontend::ast::{Block, Expr, Item, Stmt, UnOp};
use rsti_telemetry::CounterId;

/// Result of a [`minimize`] run.
#[derive(Debug, Clone)]
pub struct MinimizeReport {
    /// The smallest reproducing AST found.
    pub items: Vec<Item>,
    /// Oracle runs spent.
    pub attempts: u32,
    /// Statement count of the input.
    pub stmts_before: usize,
    /// Statement count of the result.
    pub stmts_after: usize,
}

/// Shrinks `items` while preserving the failure class `class_key`.
///
/// The input is assumed to fail with that class; if it does not, the input
/// is returned unchanged (no candidate can be accepted). At most `budget`
/// oracle runs are spent.
pub fn minimize(items: &[Item], class_key: &str, budget: u32) -> MinimizeReport {
    let tel = rsti_telemetry::global();
    let mut cur: Vec<Item> = items.to_vec();
    let mut attempts: u32 = 0;
    let stmts_before = count_stmts(&cur);

    let reproduces = |cand: &[Item], attempts: &mut u32| -> bool {
        *attempts += 1;
        tel.add(CounterId::FuzzMinimizeAttempts, 1);
        matches!(check_items(cand), Err(k) if k.class_key() == class_key)
    };

    'outer: loop {
        let mut changed = false;

        // Whole items, last first: the generator emits `main` last and
        // helpers first, so reverse order tends to hit dead helpers early.
        let mut i = cur.len();
        while i > 0 {
            i -= 1;
            if attempts >= budget {
                break 'outer;
            }
            let mut cand = cur.clone();
            cand.remove(i);
            if reproduces(&cand, &mut attempts) {
                cur = cand;
                changed = true;
            }
        }

        for kind in [
            EditKind::Remove,
            EditKind::Unwrap,
            EditKind::DropElse,
            EditKind::CollapseCall,
            EditKind::Simplify,
        ] {
            let mut k = count_stmts(&cur);
            while k > 0 {
                k -= 1;
                if attempts >= budget {
                    break 'outer;
                }
                let mut cand = cur.clone();
                if apply_edit(&mut cand, k, kind) != Some(true) {
                    continue; // position has no such edit: no oracle run spent
                }
                if reproduces(&cand, &mut attempts) {
                    cur = cand;
                    changed = true;
                    k = k.min(count_stmts(&cur)); // positions shifted
                }
            }
        }

        if !changed {
            break;
        }
    }

    MinimizeReport { stmts_after: count_stmts(&cur), items: cur, attempts, stmts_before }
}

#[derive(Clone, Copy, PartialEq)]
enum EditKind {
    /// Delete the statement.
    Remove,
    /// Replace an `if`/loop/nested block with its body's statements.
    Unwrap,
    /// Delete an `else` branch.
    DropElse,
    /// Replace the first call in the statement's expression with its first
    /// argument (or `0`), severing a call-graph edge.
    CollapseCall,
    /// Shrink the statement's expression one step.
    Simplify,
}

/// Counts statements in pre-order across all function bodies — the position
/// space the edit kinds index into.
pub fn count_stmts(items: &[Item]) -> usize {
    items
        .iter()
        .map(|it| match it {
            Item::Func { body: Some(b), .. } => count_block(b),
            _ => 0,
        })
        .sum()
}

fn count_block(b: &Block) -> usize {
    b.stmts.iter().map(count_stmt).sum()
}

fn count_stmt(s: &Stmt) -> usize {
    1 + match s {
        Stmt::If { then_blk, else_blk, .. } => {
            count_block(then_blk) + else_blk.as_ref().map_or(0, count_block)
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
            count_block(body)
        }
        Stmt::Block(inner) => count_block(inner),
        _ => 0,
    }
}

/// Applies `kind` to the `k`-th statement in pre-order. `None`: fewer than
/// `k + 1` statements. `Some(false)`: position exists but the edit does not
/// apply there (e.g. `DropElse` on a `while`).
fn apply_edit(items: &mut [Item], k: usize, kind: EditKind) -> Option<bool> {
    let mut n = k;
    for it in items.iter_mut() {
        if let Item::Func { body: Some(b), .. } = it {
            if let Some(r) = apply_in_block(b, &mut n, kind) {
                return Some(r);
            }
        }
    }
    None
}

fn apply_in_block(b: &mut Block, n: &mut usize, kind: EditKind) -> Option<bool> {
    let mut i = 0;
    while i < b.stmts.len() {
        if *n == 0 {
            return Some(apply_at(&mut b.stmts, i, kind));
        }
        *n -= 1;
        let nested = match &mut b.stmts[i] {
            Stmt::If { then_blk, else_blk, .. } => apply_in_block(then_blk, n, kind)
                .or_else(|| else_blk.as_mut().and_then(|e| apply_in_block(e, n, kind))),
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
                apply_in_block(body, n, kind)
            }
            Stmt::Block(inner) => apply_in_block(inner, n, kind),
            _ => None,
        };
        if nested.is_some() {
            return nested;
        }
        i += 1;
    }
    None
}

fn apply_at(stmts: &mut Vec<Stmt>, i: usize, kind: EditKind) -> bool {
    match kind {
        EditKind::Remove => {
            stmts.remove(i);
            true
        }
        EditKind::Unwrap => {
            let inner = match &mut stmts[i] {
                Stmt::If { then_blk, .. } => Some(std::mem::take(&mut then_blk.stmts)),
                Stmt::While { body, .. }
                | Stmt::DoWhile { body, .. }
                | Stmt::For { body, .. } => Some(std::mem::take(&mut body.stmts)),
                Stmt::Block(inner) => Some(std::mem::take(&mut inner.stmts)),
                _ => None,
            };
            match inner {
                Some(list) => {
                    stmts.splice(i..=i, list);
                    true
                }
                None => false,
            }
        }
        EditKind::DropElse => match &mut stmts[i] {
            Stmt::If { else_blk: e @ Some(_), .. } => {
                *e = None;
                true
            }
            _ => false,
        },
        EditKind::CollapseCall | EditKind::Simplify => {
            let target = match &mut stmts[i] {
                Stmt::Assign { value, .. } => Some(value),
                Stmt::Decl { init: Some(v), .. } => Some(v),
                Stmt::Return(Some(v), _) => Some(v),
                Stmt::Expr(v) => Some(v),
                _ => None,
            };
            match (target, kind) {
                (Some(e), EditKind::CollapseCall) => collapse_first_call(e),
                (Some(e), _) => shrink_expr(e),
                (None, _) => false,
            }
        }
    }
}

/// Replaces the first (pre-order) call in `e` with its first argument, or
/// `0` for a nullary call. Type mismatches the substitution introduces are
/// caught downstream like any other rejected candidate.
fn collapse_first_call(e: &mut Expr) -> bool {
    if let Expr::Call { args, line, .. } = e {
        *e = match args.first() {
            Some(a) => a.clone(),
            None => Expr::IntLit(0, *line),
        };
        return true;
    }
    match e {
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => collapse_first_call(expr),
        Expr::Binary { lhs, rhs, .. } => {
            collapse_first_call(lhs) || collapse_first_call(rhs)
        }
        Expr::Member { base, .. } => collapse_first_call(base),
        Expr::Index { base, index, .. } => {
            collapse_first_call(base) || collapse_first_call(index)
        }
        _ => false,
    }
}

/// One shrinking step on an expression; type errors introduced here are
/// caught downstream (the candidate fails to compile and is rejected).
fn shrink_expr(e: &mut Expr) -> bool {
    let repl = match e {
        Expr::Binary { lhs, .. } => Some((**lhs).clone()),
        Expr::Cast { expr, .. } => Some((**expr).clone()),
        Expr::Unary { op: UnOp::Neg | UnOp::Not, expr, .. } => Some((**expr).clone()),
        _ => None,
    };
    match repl {
        Some(r) => {
            *e = r;
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsti_frontend::ast::Stmt;
    use rsti_frontend::parse;

    #[test]
    fn collapse_call_severs_the_call_edge_in_place() {
        let src = "long helper(long x) { return x + 1; }\n\
                   int main() { long r = helper(3); return (int) r; }";
        let mut items = parse(src).unwrap();
        // Pre-order stmt 0 is helper's return; stmt 1 is the decl in main.
        assert_eq!(apply_edit(&mut items, 1, EditKind::CollapseCall), Some(true));
        let Item::Func { body: Some(b), .. } = &items[1] else {
            panic!("main missing")
        };
        match &b.stmts[0] {
            Stmt::Decl { init: Some(Expr::IntLit(3, _)), .. } => {}
            other => panic!("call not collapsed to its argument: {other:?}"),
        }
        // Nothing left to collapse at that position.
        assert_eq!(apply_edit(&mut items, 1, EditKind::CollapseCall), Some(false));
    }

    #[test]
    fn collapse_call_reaches_nested_and_nullary_calls() {
        let src = "long zero() { return 0; }\n\
                   int main() { long r = 1 + zero(); return (int) r; }";
        let mut items = parse(src).unwrap();
        assert_eq!(apply_edit(&mut items, 1, EditKind::CollapseCall), Some(true));
        let Item::Func { body: Some(b), .. } = &items[1] else {
            panic!("main missing")
        };
        match &b.stmts[0] {
            Stmt::Decl { init: Some(Expr::Binary { rhs, .. }), .. } => {
                assert!(
                    matches!(**rhs, Expr::IntLit(0, _)),
                    "nullary call must collapse to 0: {rhs:?}"
                );
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }
}
