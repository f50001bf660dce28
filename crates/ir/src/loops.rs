//! Natural-loop forest and preheader insertion.
//!
//! A *back edge* is a CFG edge `latch → header` whose target dominates its
//! source; the *natural loop* of that edge is the header plus every block
//! that can reach the latch without passing through the header. Loops
//! sharing a header are merged (a `continue` statement produces exactly
//! that shape). A retreating edge whose target does **not** dominate its
//! source marks an *irreducible* region — a multi-entry cycle, which `goto`
//! could produce but structured MiniC lowering never does. The analysis
//! flags the whole function irreducible and the loop-aware optimizer
//! passes conservatively skip it.
//!
//! [`insert_preheaders`] gives every loop header a dedicated out-of-loop
//! predecessor: a fresh block that all entry edges are retargeted through.
//! Loop-invariant auth hoisting (`rsti-core`) moves header-resident
//! load+authenticate pairs there so a hot loop pays one check per *entry*
//! instead of one per *iteration*.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::{BasicBlock, BlockId, Function};
use crate::inst::Terminator;

/// One natural loop (back edges merged per header).
#[derive(Debug, Clone, PartialEq)]
pub struct NaturalLoop {
    /// The unique entry block of the loop: it dominates every block in
    /// [`NaturalLoop::blocks`].
    pub header: BlockId,
    /// Sources of the back edges into [`NaturalLoop::header`].
    pub latches: Vec<BlockId>,
    /// All blocks of the loop, header included, in ascending order.
    pub blocks: Vec<BlockId>,
    /// Nesting depth: 1 for an outermost loop, 2 for a loop whose header
    /// lies inside exactly one other loop, and so on.
    pub depth: u32,
}

impl NaturalLoop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// Blocks inside the loop whose terminator leaves it — either via an
    /// edge to an outside block or by returning/trapping. Guaranteed-
    /// execution reasoning ("dominates all exits") must consider both.
    pub fn exiting_blocks(&self, cfg: &Cfg, f: &Function) -> Vec<BlockId> {
        let mut out = Vec::new();
        for &b in &self.blocks {
            let leaves_by_edge = cfg.succs(b).iter().any(|&s| !self.contains(s));
            let leaves_by_term = matches!(
                f.blocks[b.0 as usize].term,
                Terminator::Ret(_) | Terminator::Unreachable
            );
            if leaves_by_edge || leaves_by_term {
                out.push(b);
            }
        }
        out
    }
}

/// Every natural loop of one function, or an irreducibility verdict.
/// [`LoopForest::recompute`] reuses the forest's buffers, the loops' own
/// included.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// The loops, sorted by header block id. Empty when
    /// [`LoopForest::irreducible`] is set.
    pub loops: Vec<NaturalLoop>,
    /// `true` when a retreating edge targeted a non-dominating block
    /// (multi-entry cycle). Loop-aware passes must skip the function.
    pub irreducible: bool,
    /// Loops of an earlier function, emptied, for reuse.
    spare: Vec<NaturalLoop>,
    /// Back edges `(latch, header)`, and the walk's scratch.
    back_edges: Vec<(BlockId, BlockId)>,
    seen: Vec<u32>,
    work: Vec<BlockId>,
}

impl LoopForest {
    /// Finds all natural loops of a function from its CFG and dominator
    /// tree. Unreachable blocks never participate.
    pub fn new(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        let mut forest = LoopForest::default();
        forest.recompute(cfg, dom);
        forest
    }

    /// Makes this the loop forest for `cfg` and `dom`, reusing its buffers.
    pub fn recompute(&mut self, cfg: &Cfg, dom: &DomTree) {
        for mut l in self.loops.drain(..) {
            l.latches.clear();
            l.blocks.clear();
            self.spare.push(l);
        }
        self.irreducible = false;
        // A retreating edge goes from a higher RPO number to a lower one.
        // Retreating + dominating target = back edge; retreating without
        // domination = irreducible.
        self.back_edges.clear();
        for &b in &cfg.rpo {
            let bi = cfg.rpo_index[b.0 as usize].unwrap();
            for &s in cfg.succs(b) {
                let si = match cfg.rpo_index[s.0 as usize] {
                    Some(i) => i,
                    None => continue,
                };
                if si <= bi {
                    if dom.dominates(s, b) {
                        if !self.back_edges.contains(&(b, s)) {
                            self.back_edges.push((b, s));
                        }
                    } else {
                        self.irreducible = true;
                        return;
                    }
                }
            }
        }

        // Natural loop of a back edge: walk predecessors from the latch,
        // stopping at the header. Merge loops that share a header.
        // Per block, the last back edge (numbered from 1) whose walk reached it.
        self.seen.clear();
        self.seen.resize(cfg.len(), 0);
        for (e, &(latch, header)) in self.back_edges.iter().enumerate() {
            let walk = e as u32 + 1;
            let li = match self.loops.iter().position(|l| l.header == header) {
                Some(li) => li,
                None => {
                    let mut l = self.spare.pop().unwrap_or(NaturalLoop {
                        header,
                        latches: Vec::new(),
                        blocks: Vec::new(),
                        depth: 0,
                    });
                    l.header = header;
                    self.loops.push(l);
                    self.loops.len() - 1
                }
            };
            let l = &mut self.loops[li];
            l.latches.push(latch);
            self.seen[header.0 as usize] = walk;
            l.blocks.push(header);
            self.work.clear();
            self.work.push(latch);
            while let Some(b) = self.work.pop() {
                if self.seen[b.0 as usize] != walk {
                    self.seen[b.0 as usize] = walk;
                    l.blocks.push(b);
                    for &p in cfg.preds(b) {
                        if cfg.is_reachable(p) {
                            self.work.push(p);
                        }
                    }
                }
            }
        }
        self.loops.sort_by_key(|l| l.header);
        for l in &mut self.loops {
            l.blocks.sort_unstable();
            l.blocks.dedup();
        }

        // Depth: number of loops whose body contains this header.
        for i in 0..self.loops.len() {
            let h = self.loops[i].header;
            self.loops[i].depth = self.loops.iter().filter(|o| o.contains(h)).count() as u32;
        }
    }

}

/// Gives every loop header a dedicated *preheader*: a fresh block appended
/// to the function whose only successor is the header, with every entry
/// edge (predecessor of the header from outside the loop) retargeted
/// through it. Back edges are left alone.
///
/// Appending keeps all existing [`BlockId`]s stable, so the forest passed
/// in stays valid for the old blocks; callers that need a fresh analysis
/// over the new shape (e.g. to find the preheaders as blocks) recompute the
/// CFG afterwards. Returns `(header, preheader)` pairs.
pub fn insert_preheaders(f: &mut Function, forest: &LoopForest) -> Vec<(BlockId, BlockId)> {
    if forest.irreducible {
        return Vec::new();
    }
    // Loop (and so preheader) per header block; the forest merges loops
    // that share a header, so each header names one loop.
    let first = f.blocks.len();
    let mut loop_of = vec![u32::MAX; first];
    for (li, l) in forest.loops.iter().enumerate() {
        loop_of[l.header.0 as usize] = li as u32;
    }
    // Retarget every entry edge (an edge into a header from outside its
    // loop) in one pass; back edges are left alone.
    let retarget = |from: usize, t: &mut BlockId| {
        let li = loop_of.get(t.0 as usize).copied().unwrap_or(u32::MAX);
        if li != u32::MAX && !forest.loops[li as usize].contains(BlockId(from as u32)) {
            *t = BlockId((first + li as usize) as u32);
        }
    };
    for (bi, blk) in f.blocks.iter_mut().enumerate() {
        match &mut blk.term {
            Terminator::Br(t) => retarget(bi, t),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => {
                retarget(bi, then_bb);
                retarget(bi, else_bb);
            }
            _ => {}
        }
    }
    forest
        .loops
        .iter()
        .enumerate()
        .map(|(li, l)| {
            f.blocks.push(BasicBlock {
                insts: Vec::new(),
                term: Terminator::Br(l.header),
                term_loc: f.blocks[l.header.0 as usize].term_loc,
            });
            (l.header, BlockId((first + li) as u32))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::tests::{cond, skeleton};

    fn analyze(terms: Vec<Terminator>) -> (Function, Cfg, DomTree, LoopForest) {
        let f = skeleton(terms);
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&cfg, &dom);
        (f, cfg, dom, forest)
    }

    #[test]
    fn simple_while_loop() {
        // 0 -> 1 ; 1 -> 2,3 ; 2 -> 1 ; 3 ret
        let (f, cfg, _, forest) = analyze(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 3),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
        ]);
        assert!(!forest.irreducible);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.blocks, vec![BlockId(1), BlockId(2)]);
        assert_eq!(l.depth, 1);
        assert_eq!(l.exiting_blocks(&cfg, &f), vec![BlockId(1)]);
    }

    #[test]
    fn nested_loops_have_depths() {
        // outer: 1..4 ; inner: 2,3
        let (_, _, _, forest) = analyze(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 5),
            cond(3, 4),
            Terminator::Br(BlockId(2)),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
        ]);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loops.iter().find(|l| l.header == BlockId(1)).unwrap();
        let inner = forest.loops.iter().find(|l| l.header == BlockId(2)).unwrap();
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(outer.blocks.contains(&BlockId(3)));
        assert!(inner.blocks.contains(&BlockId(3)));
        assert!(!inner.blocks.contains(&BlockId(4)));
    }

    #[test]
    fn multi_exit_loop_reports_break_and_ret_blocks() {
        // 0 -> 1 ; 1 -> 2,4 ; 2 -> 3,5 ; 3 -> 1 ; 4,5 ret
        let (f, cfg, _, forest) = analyze(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 4),
            cond(3, 5),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
            Terminator::Ret(None),
        ]);
        let l = &forest.loops[0];
        assert_eq!(l.exiting_blocks(&cfg, &f), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn mid_loop_return_block_is_outside_and_its_pred_exits() {
        // 0 -> 1 ; 1 -> 2,4 ; 2 -> 3,5 ; 3 -> 1 ; 4 ret ; 5 ret.
        // Block 5 returns "from inside" the loop body source-wise, but a
        // returning block can never reach the latch, so the natural loop
        // excludes it and its predecessor 2 counts as exiting.
        let (f, cfg, _, forest) = analyze(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 4),
            cond(3, 5),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
            Terminator::Ret(None),
        ]);
        let l = &forest.loops[0];
        assert!(!l.contains(BlockId(5)));
        assert!(l.exiting_blocks(&cfg, &f).contains(&BlockId(2)));
    }

    #[test]
    fn continue_shape_merges_latches() {
        // Two back edges to one header: 0 -> 1 ; 1 -> 2,4 ; 2 -> 3,1 ; 3 -> 1
        let (_, _, _, forest) = analyze(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 4),
            cond(3, 1),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
        ]);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.latches.len(), 2);
    }

    #[test]
    fn irreducible_cycle_bails_out() {
        // 0 -> 1,2 ; 1 -> 2 ; 2 -> 1: a cycle with two entries.
        let (mut f, _, _, forest) = analyze(vec![
            cond(1, 2),
            Terminator::Br(BlockId(2)),
            Terminator::Br(BlockId(1)),
        ]);
        assert!(forest.irreducible);
        assert!(forest.loops.is_empty());
        assert!(insert_preheaders(&mut f, &forest).is_empty());
    }

    #[test]
    fn preheader_takes_over_entry_edges_only() {
        let (mut f, _, _, forest) = analyze(vec![
            Terminator::Br(BlockId(1)),
            cond(2, 3),
            Terminator::Br(BlockId(1)),
            Terminator::Ret(None),
        ]);
        let created = insert_preheaders(&mut f, &forest);
        assert_eq!(created, vec![(BlockId(1), BlockId(4))]);
        // Entry edge 0 -> 1 rerouted through the preheader...
        assert_eq!(f.blocks[0].term, Terminator::Br(BlockId(4)));
        assert_eq!(f.blocks[4].term, Terminator::Br(BlockId(1)));
        // ...back edge untouched.
        assert_eq!(f.blocks[2].term, Terminator::Br(BlockId(1)));
        // The new shape still analyzes cleanly and the preheader is the
        // header's only out-of-loop predecessor.
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        let forest2 = LoopForest::new(&cfg, &dom);
        let l = forest2
            .loops
            .iter()
            .find(|l| l.header == BlockId(1))
            .unwrap();
        let entries: Vec<BlockId> = cfg
            .preds(BlockId(1))
            .iter()
            .copied()
            .filter(|p| !l.blocks.contains(p))
            .collect();
        assert_eq!(entries, vec![BlockId(4)]);
        assert!(dom.dominates(BlockId(4), BlockId(1)));
    }
}
