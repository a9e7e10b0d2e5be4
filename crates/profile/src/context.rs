//! Tracking which loops are active during interpretation.
//!
//! The tracker runs once per interpreted step, so its static tables are
//! dense: a per-block header table (program-wide flat block index) and a
//! per-loop block-membership table replace hash probes on the hot path.

use spt_interp::{EvKind, Event};
use spt_sir::{analyze_loops, BlockId, FuncId, LoopId, Program, StmtRef};

/// Identifies a static loop across the whole program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopKey {
    pub func: FuncId,
    pub loop_id: LoopId,
}

/// Dense program-wide numbering of blocks and statements: function `f`'s
/// block `b` is flat block `block_base[f] + b`, and statement `i` of that
/// block is flat statement `stmt_base[flat block] + i`.
pub(crate) struct Layout {
    block_base: Vec<u32>,
    stmt_base: Vec<u32>,
    n_stmts: usize,
}

impl Layout {
    pub(crate) fn new(prog: &Program) -> Layout {
        let mut block_base = Vec::with_capacity(prog.funcs.len());
        let mut stmt_base = Vec::new();
        let mut n_stmts = 0usize;
        for f in &prog.funcs {
            block_base.push(stmt_base.len() as u32);
            for b in &f.blocks {
                stmt_base.push(n_stmts as u32);
                n_stmts += b.insts.len();
            }
        }
        Layout {
            block_base,
            stmt_base,
            n_stmts,
        }
    }

    /// Total blocks across all functions.
    pub(crate) fn n_blocks(&self) -> usize {
        self.stmt_base.len()
    }

    /// Total statements across all functions.
    pub(crate) fn n_stmts(&self) -> usize {
        self.n_stmts
    }

    #[inline]
    pub(crate) fn block(&self, func: FuncId, block: BlockId) -> usize {
        self.block_base[func.index()] as usize + block.index()
    }

    #[inline]
    pub(crate) fn stmt(&self, func: FuncId, sref: StmtRef) -> usize {
        self.stmt_base[self.block(func, sref.block)] as usize + sref.index as usize
    }
}

/// One active loop execution.
#[derive(Clone, Debug)]
pub struct ActiveLoop {
    pub key: LoopKey,
    /// Dense index of the loop ([`LoopContextTracker::index_of`]).
    pub index: usize,
    /// Frame depth at which the loop executes.
    pub depth: u32,
    /// Iterations observed in this invocation so far.
    pub iters: u64,
}

/// Static facts about one loop.
struct LoopMeta {
    key: LoopKey,
    /// Membership per block of the loop's function.
    members: Vec<bool>,
}

/// No loop has its header here.
const NO_LOOP: u32 = u32::MAX;

/// Per flat block: the loop whose header it is and whether that header
/// has no statements (its terminator event is then the block head).
#[derive(Clone, Copy)]
struct Head {
    loop_index: u32,
    empty: bool,
}

/// Maintains the stack of active loops (across nesting and calls) from the
/// event stream, and reports loop entry / iteration / exit transitions.
pub struct LoopContextTracker {
    layout: Layout,
    heads: Vec<Head>,
    loops: Vec<LoopMeta>,
    stack: Vec<ActiveLoop>,
}

/// What a single event did to the loop context, apart from exits (which
/// [`LoopContextTracker::observe`] hands to its callback).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopTransition {
    /// True when the iterated loop was entered by this event.
    pub entered: bool,
    /// Dense index of the loop that began a new iteration (incl. the first
    /// on entry).
    pub iterated: Option<usize>,
}

impl LoopContextTracker {
    pub fn new(prog: &Program) -> Self {
        let layout = Layout::new(prog);
        let mut heads = vec![
            Head {
                loop_index: NO_LOOP,
                empty: false,
            };
            layout.n_blocks()
        ];
        let mut loops = Vec::new();
        for fid in prog.func_ids() {
            let f = prog.func(fid);
            let (_, _, forest) = analyze_loops(f);
            for l in &forest.loops {
                let mut members = vec![false; f.blocks.len()];
                for b in &l.blocks {
                    members[b.index()] = true;
                }
                heads[layout.block(fid, l.header)] = Head {
                    loop_index: loops.len() as u32,
                    empty: f.block(l.header).insts.is_empty(),
                };
                loops.push(LoopMeta {
                    key: LoopKey {
                        func: fid,
                        loop_id: l.id,
                    },
                    members,
                });
            }
        }
        LoopContextTracker {
            layout,
            heads,
            loops,
            stack: Vec::new(),
        }
    }

    /// Number of static loops in the program (the dense index range).
    pub fn n_loops(&self) -> usize {
        self.loops.len()
    }

    /// The key of the loop with dense index `index`.
    pub fn key(&self, index: usize) -> LoopKey {
        self.loops[index].key
    }

    /// Dense index of `key`, if the program has that loop.
    pub fn index_of(&self, key: LoopKey) -> Option<usize> {
        self.loops.iter().position(|l| l.key == key)
    }

    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The innermost active loop, if any.
    pub fn current(&self) -> Option<&ActiveLoop> {
        self.stack.last()
    }

    /// Feed one event; loops it exits are popped and passed to `exited`
    /// innermost first, and the entry/iteration it caused is returned.
    #[inline]
    pub fn observe(&mut self, ev: &Event, mut exited: impl FnMut(ActiveLoop)) -> LoopTransition {
        let (func, block) = match ev.kind {
            EvKind::Inst { func, sref } => (func, sref.block),
            EvKind::Term { func, block } => (func, block),
        };

        // Exits: shallower frame, or same frame outside the loop's blocks.
        while let Some(top) = self.stack.last() {
            let gone = ev.depth < top.depth
                || (ev.depth == top.depth
                    && (func != top.key.func || !self.loops[top.index].members[block.index()]));
            if !gone {
                break;
            }
            exited(self.stack.pop().expect("non-empty"));
        }

        // Entry / iteration at a header's first position. Term events are
        // heads only for empty blocks.
        let head = self.heads[self.layout.block(func, block)];
        let at_head = match ev.kind {
            EvKind::Inst { sref, .. } => sref.index == 0,
            EvKind::Term { .. } => head.empty,
        };
        if head.loop_index == NO_LOOP || !at_head {
            return LoopTransition::default();
        }
        let index = head.loop_index as usize;
        match self.stack.last_mut() {
            Some(top) if top.index == index && top.depth == ev.depth => {
                top.iters += 1;
                LoopTransition {
                    entered: false,
                    iterated: Some(index),
                }
            }
            _ => {
                self.stack.push(ActiveLoop {
                    key: self.loops[index].key,
                    index,
                    depth: ev.depth,
                    iters: 1,
                });
                LoopTransition {
                    entered: true,
                    iterated: Some(index),
                }
            }
        }
    }

    /// Pop everything (end of program), passing each loop to `exited`
    /// innermost first.
    pub fn finish(&mut self, exited: impl FnMut(ActiveLoop)) {
        self.stack.drain(..).rev().for_each(exited);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::{Cursor, DecodedProgram, Memory};
    use spt_sir::{BinOp, ProgramBuilder};

    fn counted_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, n);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let id = f.finish();
        pb.finish(id, 0)
    }

    fn drive(prog: &Program) -> (u64, Vec<(LoopKey, u64)>) {
        let mut tracker = LoopContextTracker::new(prog);
        let mut mem = Memory::for_program(prog);
        let dec = DecodedProgram::new(prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut iters = 0;
        let mut exits = Vec::new();
        while let Some(ev) = cur.step(&mut mem) {
            let tr = tracker.observe(&ev, |l| exits.push((l.key, l.iters)));
            if tr.iterated.is_some() {
                iters += 1;
            }
        }
        tracker.finish(|l| exits.push((l.key, l.iters)));
        (iters, exits)
    }

    #[test]
    fn counts_iterations_of_counted_loop() {
        let prog = counted_loop(7);
        let (iters, exits) = drive(&prog);
        assert_eq!(iters, 7);
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].1, 7);
    }

    #[test]
    fn single_iteration_loop() {
        let prog = counted_loop(1);
        let (iters, exits) = drive(&prog);
        assert_eq!(iters, 1);
        assert_eq!(exits[0].1, 1);
    }

    #[test]
    fn nested_loops_tracked_independently() {
        // outer 3 iterations x inner 4 iterations.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let j = f.reg();
        let ni = f.const_reg(3);
        let nj = f.const_reg(4);
        let outer = f.new_block();
        let inner = f.new_block();
        let tail = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(outer);
        f.switch_to(outer);
        f.const_(j, 0);
        f.jmp(inner);
        f.switch_to(inner);
        f.addi(j, j, 1);
        let cj = f.reg();
        f.bin(BinOp::CmpLt, cj, j, nj);
        f.br(cj, inner, tail);
        f.switch_to(tail);
        f.addi(i, i, 1);
        let ci = f.reg();
        f.bin(BinOp::CmpLt, ci, i, ni);
        f.br(ci, outer, exit);
        f.switch_to(exit);
        f.ret(None);
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (iters, exits) = drive(&prog);
        // outer: 3 iterations; inner: 3 invocations x 4 iterations = 12.
        assert_eq!(iters, 3 + 12);
        // inner exits 3 times with 4 iters each, outer once with 3.
        let mut inner_exits = 0;
        let mut outer_exit = 0;
        for (_, n) in exits {
            if n == 4 {
                inner_exits += 1;
            } else if n == 3 {
                outer_exit += 1;
            }
        }
        assert_eq!(inner_exits, 3);
        assert_eq!(outer_exit, 1);
    }

    #[test]
    fn loop_with_call_keeps_context() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.declare("leaf", 1);
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(5);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        let r = f.reg();
        f.call(leaf, &[i], Some(r));
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        let mut g = pb.build(leaf);
        let p = g.param(0);
        let out = g.reg();
        g.bin(BinOp::Mul, out, p, p);
        g.ret(Some(out));
        g.finish();
        let prog = pb.finish(main, 0);
        let mut tracker = LoopContextTracker::new(&prog);
        let mut mem = Memory::for_program(&prog);
        let dec = DecodedProgram::new(&prog);
        let mut cur = Cursor::at_entry(&dec);
        let mut deepest_in_loop = 0u32;
        while let Some(ev) = cur.step(&mut mem) {
            tracker.observe(&ev, |_| {});
            if tracker.current().is_some() {
                deepest_in_loop = deepest_in_loop.max(ev.depth);
            }
        }
        // Callee instructions (depth 1) executed under the loop context.
        assert_eq!(deepest_in_loop, 1);
    }
}
