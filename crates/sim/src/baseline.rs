//! Baseline single-core simulation: the optimized sequential program on one
//! Itanium2-like in-order core (the paper's reference configuration).

use crate::arena::{self, SimArena};
use crate::engine::CycleBreakdown;
use crate::metrics::{LoopAnnotations, LoopCycleTracker};
use spt_interp::{Cursor, DecodedProgram, Memory};
use spt_mach::{CacheStats, MachineConfig};
use spt_sir::Program;
use spt_trace::{NullSink, Pipe, TraceSink};

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    pub cycles: u64,
    pub instrs: u64,
    pub breakdown: CycleBreakdown,
    pub cache: CacheStats,
    pub bp_mispredicts: u64,
    pub bp_lookups: u64,
    /// Cycles attributed to each annotated loop, by annotation order.
    pub loop_cycles: Vec<u64>,
    /// Instructions attributed to each annotated loop.
    pub loop_instrs: Vec<u64>,
    pub ret: Option<i64>,
    pub steps: u64,
    pub out_of_fuel: bool,
    /// Block-superstep memo hits/misses (0 when the run is traced).
    pub superstep_hits: u64,
    pub superstep_misses: u64,
}

impl BaselineReport {
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// Simulate the sequential program on one core, on the thread's arena.
pub fn simulate_baseline(
    prog: &Program,
    cfg: &MachineConfig,
    annots: &LoopAnnotations,
    max_steps: u64,
) -> BaselineReport {
    arena::with_thread_arena(|a| {
        let (report, mem) = simulate_baseline_in(a, prog, cfg, annots, max_steps, &mut NullSink);
        a.put_mem(mem);
        report
    })
}

/// [`simulate_baseline`] with a trace sink (the single pipeline emits
/// `StallTransition` events whenever its idle-cause changes class),
/// returning the final memory image for differential state comparison.
/// Runs on the thread's arena.
pub fn simulate_baseline_traced(
    prog: &Program,
    cfg: &MachineConfig,
    annots: &LoopAnnotations,
    max_steps: u64,
    sink: &mut dyn TraceSink,
) -> (BaselineReport, Memory) {
    arena::with_thread_arena(|a| simulate_baseline_in(a, prog, cfg, annots, max_steps, sink))
}

/// [`simulate_baseline_traced`] on an explicit arena: heap components are
/// checked out of `arena` (reset-or-fresh) and retired back into it at the
/// end; the final memory image is handed to the caller.
pub fn simulate_baseline_in(
    arena: &mut SimArena,
    prog: &Program,
    cfg: &MachineConfig,
    annots: &LoopAnnotations,
    max_steps: u64,
    sink: &mut dyn TraceSink,
) -> (BaselineReport, Memory) {
    let dec = DecodedProgram::new(prog);
    let mut core = arena.take_core(cfg, Pipe::Main);
    let mut cache = arena.take_cache(cfg);
    let mut mem = arena.take_mem(prog);
    let mut cur = Cursor::at_entry_in(&dec, arena.take_cursor_parts());
    let mut tracker = LoopCycleTracker::new(annots);

    // Superstepping is bit-identical by construction but bypassed on
    // traced runs so the trace layer sees the interpreter's native path.
    let traced = sink.enabled();
    let mut memo = (!traced).then(|| arena.take_memo(dec.n_flat_blocks() as usize));
    let mut steps = 0u64;
    while steps < max_steps {
        if let Some(memo) = memo.as_mut() {
            // The memo only exists on untraced runs: quiet issue.
            let n = cur.superstep(&mut mem, memo, max_steps - steps, &mut |ev| {
                core.step_issue_quiet(ev, &mut cache, cfg, &mut tracker);
            });
            if n > 0 {
                steps += n;
                continue;
            }
        }
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;
        if traced {
            core.step_issue(&ev, &mut cache, cfg, &mut tracker, sink);
        } else {
            core.step_issue_quiet(&ev, &mut cache, cfg, &mut tracker);
        }
    }

    let engine = &core.engine;
    let report = BaselineReport {
        cycles: engine.cycle() + 1,
        instrs: engine.instrs(),
        breakdown: engine.breakdown(),
        cache: cache.stats(),
        bp_mispredicts: engine.bp_mispredicts(),
        bp_lookups: engine.bp_lookups(),
        loop_cycles: tracker.cycles().to_vec(),
        loop_instrs: tracker.instrs().to_vec(),
        ret: cur.return_value(),
        steps,
        out_of_fuel: !cur.is_halted(),
        superstep_hits: memo.as_ref().map_or(0, |m| m.hits()),
        superstep_misses: memo.as_ref().map_or(0, |m| m.misses()),
    };

    arena.put_cursor_parts(cur.into_parts());
    arena.put_core(core);
    arena.put_cache(cache);
    if let Some(m) = memo {
        arena.put_memo(m);
    }
    arena.publish_retained();
    (report, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{BinOp, BlockId, FuncId, ProgramBuilder};

    fn array_sum(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        for a in 0..n {
            pb.datum(a as u64, a + 1);
        }
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let sum = f.reg();
        let nn = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(sum, 0);
        f.const_(nn, n);
        f.jmp(body);
        f.switch_to(body);
        let v = f.reg();
        f.load(v, i, 0);
        f.bin(BinOp::Add, sum, sum, v);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(sum));
        let id = f.finish();
        pb.finish(id, (n as usize).max(1))
    }

    #[test]
    fn baseline_produces_correct_result_and_plausible_timing() {
        let prog = array_sum(100);
        let rep = simulate_baseline(
            &prog,
            &MachineConfig::default(),
            &LoopAnnotations::empty(),
            1_000_000,
        );
        assert_eq!(rep.ret, Some(5050));
        assert!(!rep.out_of_fuel);
        assert!(rep.cycles > 100, "must cost > 1 cycle/iter");
        assert!(rep.instrs > 500);
        assert!(rep.ipc() > 0.1 && rep.ipc() <= 6.0);
        // Cold misses on 100 words / 8 per block = ~13 blocks.
        assert!(rep.cache.l1_misses >= 12);
    }

    #[test]
    fn loop_attribution_covers_most_of_a_loopy_program() {
        let prog = array_sum(200);
        let annots = LoopAnnotations {
            loops: vec![crate::metrics::LoopAnnot {
                id: 0,
                func: FuncId(0),
                blocks: vec![BlockId(1)],
                fork_start: None,
            }],
        };
        let rep = simulate_baseline(&prog, &MachineConfig::default(), &annots, 1_000_000);
        assert_eq!(rep.loop_cycles.len(), 1);
        // The loop dominates execution.
        assert!(
            rep.loop_cycles[0] * 10 > rep.cycles * 8,
            "loop cycles {} of {}",
            rep.loop_cycles[0],
            rep.cycles
        );
        assert!(rep.loop_instrs[0] > 1000);
    }

    #[test]
    fn fuel_limit_reported() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("inf", 0);
        let b = f.new_block();
        f.jmp(b);
        f.switch_to(b);
        f.jmp(b);
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let rep = simulate_baseline(
            &prog,
            &MachineConfig::default(),
            &LoopAnnotations::empty(),
            100,
        );
        assert!(rep.out_of_fuel);
        assert_eq!(rep.steps, 100);
    }

    #[test]
    fn breakdown_matches_total_roughly() {
        let prog = array_sum(50);
        let rep = simulate_baseline(
            &prog,
            &MachineConfig::default(),
            &LoopAnnotations::empty(),
            1_000_000,
        );
        let bd = rep.breakdown;
        assert!(bd.total() <= rep.cycles + 2);
        assert!(bd.total() + 2 >= rep.cycles);
        // Serial loads feeding the sum: some dcache stall expected.
        assert!(bd.dcache_stall > 0);
    }
}
