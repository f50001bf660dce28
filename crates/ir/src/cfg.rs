//! Control-flow graph over a function's basic blocks.
//!
//! The optimizer's CFG-aware passes (dominator-based auth elision,
//! loop-invariant auth hoisting — see `rsti-core`) all start from the same
//! three artifacts computed here: the successor lists read straight off the
//! terminators, the inverted predecessor lists, and a reverse-postorder
//! (RPO) numbering of the blocks reachable from the entry. RPO is the
//! iteration order that makes forward dataflow and the Cooper–Harvey–
//! Kennedy dominator algorithm ([`crate::dom`]) converge in a small number
//! of passes.
//!
//! Blocks that are unreachable from the entry (the frontend emits a few —
//! e.g. the tail of a `return`-terminated branch) get no RPO number and are
//! ignored by every analysis built on top; the optimizer leaves their
//! contents untouched.

use crate::function::{BlockId, Function};
use crate::inst::Terminator;

/// Successor blocks of a terminator, in branch order.
pub fn term_successors(t: &Terminator) -> Vec<BlockId> {
    match t {
        Terminator::Br(b) => vec![*b],
        Terminator::CondBr { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
        Terminator::Ret(_) | Terminator::Unreachable => vec![],
    }
}

/// The control-flow graph of one function: successors, predecessors, and a
/// reverse-postorder over the blocks reachable from the entry. The edge
/// lists are stored flat, block by block (a function's whole CFG is four
/// allocations, not two per block).
#[derive(Debug, Clone)]
pub struct Cfg {
    /// `succ_list[succ_at[b]..succ_at[b + 1]]` — [`Cfg::succs`] of `b`.
    succ_at: Vec<u32>,
    succ_list: Vec<BlockId>,
    /// `pred_list[pred_at[b]..pred_at[b + 1]]` — [`Cfg::preds`] of `b`.
    pred_at: Vec<u32>,
    pred_list: Vec<BlockId>,
    /// Reachable blocks in reverse-postorder; `rpo[0]` is the entry.
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b]` — position of block `b` in [`Cfg::rpo`], or `None`
    /// when `b` is unreachable from the entry.
    pub rpo_index: Vec<Option<u32>>,
}

impl Cfg {
    /// Builds the CFG of `f`. Functions with no blocks (externals) yield an
    /// empty graph.
    pub fn new(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succ_at = Vec::with_capacity(n + 1);
        let mut succ_list = Vec::with_capacity(2 * n);
        // Predecessor counts, shifted by one for the prefix sum below.
        let mut pred_at = vec![0u32; n + 1];
        for blk in &f.blocks {
            succ_at.push(succ_list.len() as u32);
            match blk.term {
                Terminator::Br(t) => succ_list.push(t),
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => {
                    succ_list.extend([then_bb, else_bb]);
                }
                Terminator::Ret(_) | Terminator::Unreachable => {}
            }
        }
        succ_at.push(succ_list.len() as u32);
        // Each block once per distinct successor (both arms of a `CondBr`
        // can name one block).
        let distinct = |w: &[u32]| {
            let succs = &succ_list[w[0] as usize..w[1] as usize];
            let n = if succs.len() == 2 && succs[0] == succs[1] {
                1
            } else {
                succs.len()
            };
            succs[..n].iter().copied()
        };
        for w in succ_at.windows(2) {
            for s in distinct(w) {
                pred_at[s.0 as usize + 1] += 1;
            }
        }
        for b in 0..n {
            pred_at[b + 1] += pred_at[b];
        }
        // Predecessors in block order, each once.
        let mut pred_list = vec![BlockId(0); pred_at[n] as usize];
        let mut fill = pred_at.clone();
        for (i, w) in succ_at.windows(2).enumerate() {
            for s in distinct(w) {
                pred_list[fill[s.0 as usize] as usize] = BlockId(i as u32);
                fill[s.0 as usize] += 1;
            }
        }
        let rpo_index = vec![None; n];
        let mut cfg = Cfg {
            succ_at,
            succ_list,
            pred_at,
            pred_list,
            rpo: Vec::new(),
            rpo_index,
        };

        // Iterative DFS from the entry; postorder reversed gives RPO.
        if n > 0 {
            let mut post: Vec<BlockId> = Vec::with_capacity(n);
            let mut visited = vec![false; n];
            // (block, next successor index to explore)
            let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
            visited[0] = true;
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                let ss = cfg.succs(b);
                if *next < ss.len() {
                    let s = ss[*next];
                    *next += 1;
                    if !visited[s.0 as usize] {
                        visited[s.0 as usize] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
            post.reverse();
            for (i, &b) in post.iter().enumerate() {
                cfg.rpo_index[b.0 as usize] = Some(i as u32);
            }
            cfg.rpo = post;
        }
        cfg
    }

    /// Successors of `b`, in terminator branch order. A block targeted by
    /// both arms of a `CondBr` appears twice.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        let i = b.0 as usize;
        &self.succ_list[self.succ_at[i] as usize..self.succ_at[i + 1] as usize]
    }

    /// Predecessors of `b`, in block order, each once.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let i = b.0 as usize;
        &self.pred_list[self.pred_at[i] as usize..self.pred_at[i + 1] as usize]
    }

    /// Number of blocks, reachable or not.
    pub fn len(&self) -> usize {
        self.rpo_index.len()
    }

    /// Whether the function has no blocks.
    pub fn is_empty(&self) -> bool {
        self.rpo_index.is_empty()
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.0 as usize].is_some()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::function::BasicBlock;
    use crate::inst::Operand;
    use crate::types::{FuncSig, TypeTable};

    /// Builds a function skeleton out of terminators only.
    pub(crate) fn skeleton(terms: Vec<Terminator>) -> Function {
        let types = TypeTable::new();
        let void = types.void();
        Function {
            name: "skel".into(),
            sig: FuncSig::new(void, vec![]),
            params: vec![],
            blocks: terms
                .into_iter()
                .map(|t| BasicBlock { insts: vec![], term: t, term_loc: None })
                .collect(),
            value_types: vec![],
            is_external: false,
        }
    }

    pub(crate) fn cond(then_bb: u32, else_bb: u32) -> Terminator {
        let types = TypeTable::new();
        let b = types.bool();
        Terminator::CondBr {
            cond: Operand::ConstInt(1, b),
            then_bb: BlockId(then_bb),
            else_bb: BlockId(else_bb),
        }
    }

    #[test]
    fn diamond_rpo_and_edges() {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3 ; 3 ret
        let f = skeleton(vec![
            cond(1, 2),
            Terminator::Br(BlockId(3)),
            Terminator::Br(BlockId(3)),
            Terminator::Ret(None),
        ]);
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)), [BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), [BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo.len(), 4);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(cfg.rpo[3], BlockId(3));
        // RPO: every edge that is not a back edge goes forward.
        let ix = |b: BlockId| cfg.rpo_index[b.0 as usize].unwrap();
        assert!(ix(BlockId(0)) < ix(BlockId(1)));
        assert!(ix(BlockId(1)) < ix(BlockId(3)));
    }

    #[test]
    fn unreachable_blocks_get_no_rpo_number() {
        let f = skeleton(vec![
            Terminator::Ret(None),
            Terminator::Br(BlockId(0)), // unreachable
        ]);
        let cfg = Cfg::new(&f);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(BlockId(1)));
        assert_eq!(cfg.rpo, vec![BlockId(0)]);
    }

    #[test]
    fn both_arms_to_same_block_dedup_preds() {
        let f = skeleton(vec![cond(1, 1), Terminator::Ret(None)]);
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)).len(), 2);
        assert_eq!(cfg.preds(BlockId(1)), [BlockId(0)]);
    }
}
