//! Dominator tree, computed with the Cooper–Harvey–Kennedy algorithm.
//!
//! Block `A` *dominates* block `B` when every path from the entry to `B`
//! passes through `A`. The optimizer leans on this in two places:
//!
//! * **dominator-based auth elision** — a previously authenticated value may
//!   replace a later identical check only when its defining block dominates
//!   the use, so the authenticated register is guaranteed to be live on
//!   every path that reaches the re-check;
//! * **loop analysis** ([`crate::loops`]) — a back edge is an edge whose
//!   target dominates its source; everything else retreating is an
//!   irreducible-graph symptom and makes the loop passes bail out.
//!
//! The algorithm is the classic "A Simple, Fast Dominance Algorithm"
//! (Cooper, Harvey & Kennedy, 2001): iterate `idom[b] = intersect(preds)`
//! over the reverse-postorder until a fixpoint, with `intersect` walking
//! the two candidate dominators up the tree by RPO number. On the small,
//! mostly-structured functions the MiniC frontend emits this converges in
//! two passes.

use crate::cfg::Cfg;
use crate::function::BlockId;

/// The dominator tree of one function, derived from its [`Cfg`].
#[derive(Debug, Clone, Default)]
pub struct DomTree {
    /// `idom[b]` — immediate dominator of block `b`. The entry block is its
    /// own idom (the CHK convention); unreachable blocks have `None`.
    pub idom: Vec<Option<BlockId>>,
    /// RPO numbering copied from the [`Cfg`] (used by `intersect` and by
    /// clients that order queries).
    rpo_index: Vec<Option<u32>>,
}

impl DomTree {
    /// Computes the dominator tree for `cfg`.
    pub fn new(cfg: &Cfg) -> DomTree {
        let mut dom = DomTree::default();
        dom.recompute(cfg);
        dom
    }

    /// Makes this the dominator tree for `cfg`, reusing its buffers.
    pub fn recompute(&mut self, cfg: &Cfg) {
        let n = cfg.len();
        self.rpo_index.clone_from(&cfg.rpo_index);
        let idom = &mut self.idom;
        idom.clear();
        idom.resize(n, None);
        if n == 0 || cfg.rpo.is_empty() {
            return;
        }
        let entry = cfg.rpo[0];
        idom[entry.0 as usize] = Some(entry);

        let rpo_num = |b: BlockId| cfg.rpo_index[b.0 as usize];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                // First processed predecessor seeds the intersection.
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if rpo_num(p).is_none() || idom[p.0 as usize].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(idom, &cfg.rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
    }

    /// Immediate dominator of `b` (`None` for the entry and for unreachable
    /// blocks — the entry has no *strict* dominator).
    pub fn idom_of(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.0 as usize] {
            Some(d) if d != b => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (reflexively: every block dominates
    /// itself). Unreachable blocks dominate nothing and are dominated by
    /// nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.rpo_index[a.0 as usize].is_none() || self.rpo_index[b.0 as usize].is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.0 as usize] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

/// CHK `intersect`: walk the two candidates up the tree until they meet,
/// comparing RPO numbers (the entry has the smallest).
fn intersect(
    idom: &[Option<BlockId>],
    rpo_index: &[Option<u32>],
    a: BlockId,
    b: BlockId,
) -> BlockId {
    let num = |x: BlockId| rpo_index[x.0 as usize].expect("reachable block");
    let (mut f1, mut f2) = (a, b);
    while f1 != f2 {
        while num(f1) > num(f2) {
            f1 = idom[f1.0 as usize].expect("processed block");
        }
        while num(f2) > num(f1) {
            f2 = idom[f2.0 as usize].expect("processed block");
        }
    }
    f1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::tests::{cond, skeleton};
    use crate::inst::Terminator;

    fn dom_of(terms: Vec<Terminator>) -> (Cfg, DomTree) {
        let f = skeleton(terms);
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        (cfg, dom)
    }

    #[test]
    fn diamond_join_is_dominated_by_fork_only() {
        // 0 -> 1,2 ; 1,2 -> 3
        let (_, dom) = dom_of(vec![
            cond(1, 2),
            Terminator::Br(BlockId(3)),
            Terminator::Br(BlockId(3)),
            Terminator::Ret(None),
        ]);
        assert_eq!(dom.idom_of(BlockId(3)), Some(BlockId(0)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
        assert!(dom.dominates(BlockId(3), BlockId(3)), "reflexive");
        assert_eq!(dom.idom_of(BlockId(0)), None, "entry has no strict idom");
    }

    #[test]
    fn nested_loop_headers_chain() {
        // 0 -> 1 (outer header); 1 -> 2 (inner header), 5
        // 2 -> 3 (inner body), 4 ; 3 -> 2 (inner latch); 4 -> 1 (outer latch)
        // 5 ret
        let (_, dom) = dom_of(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 5),
            cond(3, 4),
            Terminator::Br(BlockId(2)),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
        ]);
        assert_eq!(dom.idom_of(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom_of(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dom.idom_of(BlockId(3)), Some(BlockId(2)));
        assert_eq!(dom.idom_of(BlockId(4)), Some(BlockId(2)));
        assert_eq!(dom.idom_of(BlockId(5)), Some(BlockId(1)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(5)));
    }

    #[test]
    fn multi_exit_loop() {
        // 0 -> 1; 1 -> 2,4 ; 2 -> 3,5 ; 3 -> 1 ; 4 ret ; 5 ret
        // Block 2 exits the loop directly (break): neither exit dominates
        // the other, both are dominated by their branching block.
        let (_, dom) = dom_of(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 4),
            cond(3, 5),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
            Terminator::Ret(None),
        ]);
        assert_eq!(dom.idom_of(BlockId(4)), Some(BlockId(1)));
        assert_eq!(dom.idom_of(BlockId(5)), Some(BlockId(2)));
        assert!(!dom.dominates(BlockId(4), BlockId(5)));
        assert!(dom.dominates(BlockId(1), BlockId(5)));
    }

    #[test]
    fn irreducible_graph_still_has_a_tree() {
        // 0 -> 1,2 ; 1 -> 2 ; 2 -> 1 (two-entry cycle). CHK handles this
        // fine — the loop *forest* is what bails out on it.
        let (_, dom) = dom_of(vec![cond(1, 2), Terminator::Br(BlockId(2)), Terminator::Br(BlockId(1))]);
        assert_eq!(dom.idom_of(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom_of(BlockId(2)), Some(BlockId(0)));
        assert!(!dom.dominates(BlockId(1), BlockId(2)));
        assert!(!dom.dominates(BlockId(2), BlockId(1)));
    }

    #[test]
    fn unreachable_blocks_dominate_nothing() {
        let (_, dom) = dom_of(vec![Terminator::Ret(None), Terminator::Br(BlockId(0))]);
        assert!(!dom.dominates(BlockId(1), BlockId(0)));
        assert!(!dom.dominates(BlockId(0), BlockId(1)));
        assert_eq!(dom.idom_of(BlockId(1)), None);
    }
}
