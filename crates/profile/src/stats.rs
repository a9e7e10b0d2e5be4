//! Whole-program profiling: loop statistics and reach probabilities.

use crate::context::{LoopContextTracker, LoopKey};
use spt_interp::{Cursor, DecOp, DecodedProgram, EvKind, Memory};
use spt_sir::{BlockId, FuncId, Program, StmtRef};
use std::collections::HashMap;

/// Dynamic statistics for one static loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopDyn {
    pub invocations: u64,
    pub iterations: u64,
    /// Dynamic instructions executed under the loop (including callees and
    /// nested loops — this is the paper's "loop body size" notion, which
    /// lets gap's occasionally-huge hot loop show up as such).
    pub dyn_instrs: u64,
}

impl LoopDyn {
    /// Average dynamic body size (instructions per iteration).
    pub fn avg_body_size(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.dyn_instrs as f64 / self.iterations as f64
        }
    }

    /// Average trip count per invocation.
    pub fn avg_trip(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.iterations as f64 / self.invocations as f64
        }
    }
}

/// Guard pass/fail counts (reach probability of a predicated statement).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardCount {
    pub pass: u64,
    pub fail: u64,
}

impl GuardCount {
    pub fn prob(&self) -> f64 {
        let n = self.pass + self.fail;
        if n == 0 {
            1.0
        } else {
            self.pass as f64 / n as f64
        }
    }
}

/// Whole-program profile.
#[derive(Clone, Debug, Default)]
pub struct ProgramProfile {
    /// Total dynamic instructions (statements + terminators).
    pub total_instrs: u64,
    pub loops: HashMap<LoopKey, LoopDyn>,
    /// Guard outcomes per predicated statement.
    pub guards: HashMap<(FuncId, StmtRef), GuardCount>,
    /// Conditional-branch outcomes per block: (taken, not taken).
    pub branches: HashMap<(FuncId, BlockId), (u64, u64)>,
    /// Per function: times called (entry counts once).
    pub func_calls: HashMap<FuncId, u64>,
    /// Per function: dynamic instructions executed within it, *inclusive*
    /// of its callees — what a call site actually costs.
    pub func_instrs: HashMap<FuncId, u64>,
    pub ret: Option<i64>,
    pub out_of_fuel: bool,
}

impl ProgramProfile {
    /// Fraction of total dynamic instructions spent under `key`.
    pub fn coverage(&self, key: LoopKey) -> f64 {
        if self.total_instrs == 0 {
            return 0.0;
        }
        self.loops
            .get(&key)
            .map(|l| l.dyn_instrs as f64 / self.total_instrs as f64)
            .unwrap_or(0.0)
    }

    /// Taken probability of the conditional branch ending `block`.
    pub fn taken_prob(&self, func: FuncId, block: BlockId) -> f64 {
        match self.branches.get(&(func, block)) {
            Some(&(t, n)) if t + n > 0 => t as f64 / (t + n) as f64,
            _ => 0.5,
        }
    }

    /// Guard pass probability of a statement (1.0 if unguarded/unseen).
    pub fn guard_prob(&self, func: FuncId, sref: StmtRef) -> f64 {
        self.guards
            .get(&(func, sref))
            .map(|g| g.prob())
            .unwrap_or(1.0)
    }

    /// Average dynamic cost (instructions, inclusive of callees) of one
    /// call to `func`, if it was ever called.
    pub fn avg_call_cost(&self, func: FuncId) -> Option<f64> {
        let calls = *self.func_calls.get(&func)?;
        if calls == 0 {
            return None;
        }
        Some(*self.func_instrs.get(&func)? as f64 / calls as f64)
    }
}

/// Run the program once, collecting loop statistics and reach
/// probabilities.
///
/// Counters live in dense per-loop, per-statement, per-block and
/// per-function vectors for the run and become the profile's maps at the
/// end. Inclusive instruction counts (per active loop, per function on
/// the call stack) are not added step by step: each stack entry records
/// the step count when it is pushed and adds the difference when it is
/// popped, so a recursive frame still counts once per stack occurrence.
pub fn profile_program(prog: &Program, max_steps: u64) -> ProgramProfile {
    let mut tracker = LoopContextTracker::new(prog);
    let mut mem = Memory::for_program(prog);
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let layout = tracker.layout();
    let n_funcs = prog.funcs.len();
    let mut loops = vec![LoopDyn::default(); tracker.n_loops()];
    let mut guards = vec![GuardCount::default(); layout.n_stmts()];
    let mut branches = vec![(0u64, 0u64); layout.n_blocks()];
    let mut func_calls = vec![0u64; n_funcs];
    let mut func_instrs = vec![0u64; n_funcs];
    let stmt_slot: Vec<(FuncId, StmtRef)> = all_stmts(prog);
    let block_slot: Vec<(FuncId, BlockId)> = all_blocks(prog);

    // The stacks of active functions and loops. Each entry holds the
    // number of steps before its first counted one; popping it adds the
    // steps counted since.
    let mut fstack: Vec<(FuncId, u64)> = vec![(prog.entry, 0)];
    func_calls[prog.entry.index()] += 1;
    let mut lstack: Vec<u64> = Vec::new();

    let mut steps = 0u64;
    while steps < max_steps {
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;

        // Loop exits: an exiting loop's count stops before this step.
        let tr = tracker.observe(&ev, |al| {
            let since = lstack.pop().expect("loop stacks in step");
            loops[al.index].dyn_instrs += steps - 1 - since;
        });
        if let Some(index) = tr.iterated {
            if tr.entered {
                loops[index].invocations += 1;
                // A loop entered here counts this step.
                lstack.push(steps - 1);
            }
            loops[index].iterations += 1;
        }

        match ev.kind {
            EvKind::Inst { func, sref } => {
                let g = &mut guards[tracker.layout().stmt(func, sref)];
                if ev.executed {
                    g.pass += 1;
                } else {
                    g.fail += 1;
                }
                if ev.is_call() {
                    if let DecOp::Call { callee, .. } = dec.func(func).inst(sref).op {
                        // The call step is the caller's; the callee counts
                        // from the next one.
                        fstack.push((callee, steps));
                        func_calls[callee.index()] += 1;
                    }
                }
            }
            EvKind::Term { func, block } => {
                if let Some(b) = ev.branch {
                    if b.conditional {
                        let e = &mut branches[tracker.layout().block(func, block)];
                        if b.taken {
                            e.0 += 1;
                        } else {
                            e.1 += 1;
                        }
                    }
                }
                // A return step is still the returning function's.
                if ev.is_ret() {
                    if let Some((fid, since)) = fstack.pop() {
                        func_instrs[fid.index()] += steps - since;
                    }
                }
            }
        }
    }
    tracker.finish(|al| {
        let since = lstack.pop().expect("loop stacks in step");
        loops[al.index].dyn_instrs += steps - since;
    });
    for (fid, since) in fstack {
        func_instrs[fid.index()] += steps - since;
    }

    ProgramProfile {
        total_instrs: steps,
        loops: loops
            .into_iter()
            .enumerate()
            .filter(|(_, l)| l.invocations > 0)
            .map(|(i, l)| (tracker.key(i), l))
            .collect(),
        guards: guards
            .into_iter()
            .zip(stmt_slot)
            .filter(|&(g, (func, sref))| {
                g.pass + g.fail > 0 && dec.func(func).inst(sref).guard.is_some()
            })
            .map(|(g, at)| (at, g))
            .collect(),
        branches: branches
            .into_iter()
            .zip(block_slot)
            .filter(|&((t, n), _)| t + n > 0)
            .map(|(c, at)| (at, c))
            .collect(),
        func_calls: nonzero_per_func(func_calls),
        func_instrs: nonzero_per_func(func_instrs),
        ret: cur.return_value(),
        out_of_fuel: !cur.is_halted(),
    }
}

/// Every statement of the program, in flat statement order.
fn all_stmts(prog: &Program) -> Vec<(FuncId, StmtRef)> {
    let mut v = Vec::new();
    for fid in prog.func_ids() {
        for (b, blk) in prog.func(fid).blocks.iter().enumerate() {
            for i in 0..blk.insts.len() {
                v.push((fid, StmtRef::new(BlockId(b as u32), i)));
            }
        }
    }
    v
}

/// Every block of the program, in flat block order.
fn all_blocks(prog: &Program) -> Vec<(FuncId, BlockId)> {
    prog.func_ids()
        .flat_map(|fid| (0..prog.func(fid).blocks.len()).map(move |b| (fid, BlockId(b as u32))))
        .collect()
}

fn nonzero_per_func(counts: Vec<u64>) -> HashMap<FuncId, u64> {
    counts
        .into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(f, n)| (FuncId(f as u32), n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{BinOp, LoopId, ProgramBuilder};

    /// Loop of n iterations with a guarded statement passing ~half the time.
    fn guarded_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(n);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        let one = f.const_reg(1);
        let parity = f.reg();
        f.bin(BinOp::And, parity, i, one);
        let x = f.reg();
        f.guard_when(parity);
        f.const_(x, 5);
        f.unguard();
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let id = f.finish();
        pb.finish(id, 0)
    }

    #[test]
    fn loop_stats_and_coverage() {
        let prog = guarded_loop(100);
        let p = profile_program(&prog, 1_000_000);
        assert!(!p.out_of_fuel);
        assert_eq!(p.loops.len(), 1);
        let (key, l) = p.loops.iter().next().unwrap();
        assert_eq!(l.invocations, 1);
        assert_eq!(l.iterations, 100);
        assert!(
            l.avg_body_size() >= 5.0 && l.avg_body_size() <= 12.0,
            "body size {}",
            l.avg_body_size()
        );
        assert_eq!(l.avg_trip(), 100.0);
        // Nearly all instructions are inside the loop.
        assert!(p.coverage(*key) > 0.9);
    }

    #[test]
    fn guard_probability_measured() {
        let prog = guarded_loop(100);
        let p = profile_program(&prog, 1_000_000);
        let (&(func, sref), g) = p
            .guards
            .iter()
            .next()
            .expect("one guarded statement profiled");
        assert_eq!(g.pass + g.fail, 100);
        // Parity of 1..=100 is 1 for 50 values.
        assert_eq!(g.pass, 50);
        assert!((p.guard_prob(func, sref) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn branch_taken_probability() {
        let prog = guarded_loop(50);
        let p = profile_program(&prog, 1_000_000);
        // The loop branch: 49 taken (continue), 1 not taken.
        let (&(func, block), &(t, n)) = p.branches.iter().next().unwrap();
        assert_eq!(t, 49);
        assert_eq!(n, 1);
        assert!((p.taken_prob(func, block) - 0.98).abs() < 1e-9);
        // Unknown branch defaults to 0.5.
        assert_eq!(p.taken_prob(FuncId(9), BlockId(9)), 0.5);
    }

    #[test]
    fn unknown_loop_coverage_zero() {
        let prog = guarded_loop(10);
        let p = profile_program(&prog, 1_000_000);
        let missing = LoopKey {
            func: FuncId(3),
            loop_id: LoopId(9),
        };
        assert_eq!(p.coverage(missing), 0.0);
    }
}
