//! The straightforward profilers, kept as the reference the dense
//! profilers in [`crate::stats`] and [`crate::deps`] must match exactly:
//! one hash-map update per observed fact, one walk over every active
//! function and loop per step, and a `Vec` of source registers per event
//! from the tree-form program. Test-only.

use crate::context::LoopKey;
use crate::deps::{DepCount, DepProfile, LoopDeps};
use crate::stats::ProgramProfile;
use spt_interp::{Cursor, DecodedProgram, EvKind, Event, Memory};
use spt_sir::{
    analyze_loops, BlockId, FuncId, LoopForest, LoopId, Program, Reg, StmtRef, Terminator,
};
use std::collections::{HashMap, HashSet};

#[derive(Clone, Debug)]
struct ActiveLoop {
    key: LoopKey,
    /// Frame depth at which the loop executes.
    depth: u32,
    /// Iterations observed in this invocation so far.
    iters: u64,
}

/// Maintains the stack of active loops (across nesting and calls) from the
/// event stream, and reports loop entry / iteration / exit transitions.
struct LoopContextTracker {
    forests: HashMap<FuncId, LoopForest>,
    /// First-position marker: (func, block) -> loop whose header this is.
    headers: HashMap<(FuncId, BlockId), LoopId>,
    /// Header blocks with no instructions: their Term event is the head.
    empty_headers: std::collections::HashSet<(FuncId, BlockId)>,
    stack: Vec<ActiveLoop>,
}

/// What a single event did to the loop context.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct LoopTransition {
    /// Loops exited by this event (innermost first).
    exited: Vec<(LoopKey, u64)>,
    /// Loop entered by this event.
    entered: Option<LoopKey>,
    /// Loop that began a new iteration (incl. the first on entry).
    iterated: Option<LoopKey>,
}

impl LoopContextTracker {
    fn new(prog: &Program) -> Self {
        let mut forests = HashMap::new();
        let mut headers = HashMap::new();
        let mut empty_headers = std::collections::HashSet::new();
        for fid in prog.func_ids() {
            let (_, _, forest) = analyze_loops(prog.func(fid));
            for l in &forest.loops {
                headers.insert((fid, l.header), l.id);
                if prog.func(fid).block(l.header).insts.is_empty() {
                    empty_headers.insert((fid, l.header));
                }
            }
            forests.insert(fid, forest);
        }
        LoopContextTracker {
            forests,
            headers,
            empty_headers,
            stack: Vec::new(),
        }
    }

    /// All active loops, outermost first.
    fn active(&self) -> &[ActiveLoop] {
        &self.stack
    }

    /// Is this event at the first position of a block (where iteration
    /// boundaries are observed)? Term events are heads only for empty
    /// blocks.
    fn block_head(&self, ev: &Event) -> Option<(FuncId, BlockId)> {
        match ev.kind {
            EvKind::Inst { func, sref } if sref.index == 0 => Some((func, sref.block)),
            EvKind::Term { func, block } if self.empty_headers.contains(&(func, block)) => {
                Some((func, block))
            }
            _ => None,
        }
    }

    /// Feed one event; returns the loop transitions it caused.
    fn observe(&mut self, ev: &Event) -> LoopTransition {
        let mut tr = LoopTransition::default();
        let (func, block) = match ev.kind {
            EvKind::Inst { func, sref } => (func, sref.block),
            EvKind::Term { func, block } => (func, block),
        };

        // Exits: shallower frame, or same frame outside the loop's blocks.
        while let Some(top) = self.stack.last() {
            let forest = &self.forests[&top.key.func];
            let l = forest.get(top.key.loop_id);
            let exited = ev.depth < top.depth
                || (ev.depth == top.depth && (func != top.key.func || !l.contains(block)));
            if exited {
                let t = self.stack.pop().expect("non-empty");
                tr.exited.push((t.key, t.iters));
            } else {
                break;
            }
        }

        // Entry / iteration at a header's first position.
        if let Some((hf, hb)) = self.block_head(ev) {
            if let Some(&lid) = self.headers.get(&(hf, hb)) {
                let key = LoopKey {
                    func: hf,
                    loop_id: lid,
                };
                match self.stack.last_mut() {
                    Some(top) if top.key == key && top.depth == ev.depth => {
                        top.iters += 1;
                        tr.iterated = Some(key);
                    }
                    _ => {
                        self.stack.push(ActiveLoop {
                            key,
                            depth: ev.depth,
                            iters: 1,
                        });
                        tr.entered = Some(key);
                        tr.iterated = Some(key);
                    }
                }
            }
        }
        tr
    }

    /// Pop everything (end of program), reporting final exits.
    fn finish(&mut self) -> Vec<(LoopKey, u64)> {
        let mut out = Vec::new();
        while let Some(t) = self.stack.pop() {
            out.push((t.key, t.iters));
        }
        out
    }
}

/// Run the program once, collecting loop statistics and reach
/// probabilities.
pub(crate) fn profile_program(prog: &Program, max_steps: u64) -> ProgramProfile {
    let mut tracker = LoopContextTracker::new(prog);
    let mut mem = Memory::for_program(prog);
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let mut p = ProgramProfile::default();

    // Function-cost attribution: the stack of active functions.
    let mut fstack: Vec<FuncId> = vec![prog.entry];
    *p.func_calls.entry(prog.entry).or_default() += 1;

    let mut steps = 0u64;
    while steps < max_steps {
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;
        p.total_instrs += 1;

        // Inclusive per-function instruction attribution.
        for &fid in &fstack {
            *p.func_instrs.entry(fid).or_default() += 1;
        }
        if ev.is_call() {
            if let EvKind::Inst { func, sref } = ev.kind {
                if let spt_sir::Op::Call { callee, .. } = &prog.func(func).inst(sref).op {
                    fstack.push(*callee);
                    *p.func_calls.entry(*callee).or_default() += 1;
                }
            }
        } else if ev.is_ret() {
            fstack.pop();
        }

        let tr = tracker.observe(&ev);
        if let Some(key) = tr.entered {
            p.loops.entry(key).or_default().invocations += 1;
        }
        if let Some(key) = tr.iterated {
            p.loops.entry(key).or_default().iterations += 1;
        }
        // Attribute the instruction to every active loop (nesting).
        for al in tracker.active() {
            p.loops.entry(al.key).or_default().dyn_instrs += 1;
        }

        match ev.kind {
            EvKind::Inst { func, sref } => {
                if prog.func(func).inst(sref).guard.is_some() {
                    let g = p.guards.entry((func, sref)).or_default();
                    if ev.executed {
                        g.pass += 1;
                    } else {
                        g.fail += 1;
                    }
                }
            }
            EvKind::Term { func, block } => {
                if let Some(b) = ev.branch {
                    if b.conditional {
                        let e = p.branches.entry((func, block)).or_default();
                        if b.taken {
                            e.0 += 1;
                        } else {
                            e.1 += 1;
                        }
                    }
                }
            }
        }
    }
    tracker.finish();
    p.ret = cur.return_value();
    p.out_of_fuel = !cur.is_halted();
    p
}

/// Live profiling state for one active loop invocation.
struct DepState {
    key: LoopKey,
    depth: u32,
    iter: u64,
    /// Loop-level call site when executing inside a callee.
    callsite: Option<StmtRef>,
    /// reg -> (iteration of last write, writer stmt, value changed?)
    reg_writer: HashMap<u32, (u64, StmtRef, bool)>,
    /// Current register values (to detect silent re-writes).
    reg_vals: HashMap<u32, i64>,
    /// word addr -> (iteration of last store, writer stmt)
    mem_writer: HashMap<u64, (u64, StmtRef)>,
    /// Deps already counted this iteration (per-iteration dedup).
    seen: HashSet<(bool, StmtRef, StmtRef)>,
    /// Value sampling at iteration boundaries.
    val_last: HashMap<u32, i64>,
    val_diffs: HashMap<u32, HashMap<i64, u64>>,
    val_samples: HashMap<u32, u64>,
}

impl DepState {
    fn new(key: LoopKey, depth: u32) -> Self {
        DepState {
            key,
            depth,
            iter: 0,
            callsite: None,
            reg_writer: HashMap::new(),
            reg_vals: HashMap::new(),
            mem_writer: HashMap::new(),
            seen: HashSet::new(),
            val_last: HashMap::new(),
            val_diffs: HashMap::new(),
            val_samples: HashMap::new(),
        }
    }

    fn sample_values(&mut self, regs: &[i64]) {
        for (r, &v) in regs.iter().enumerate() {
            let r = r as u32;
            if let Some(&prev) = self.val_last.get(&r) {
                let d = v.wrapping_sub(prev);
                let h = self.val_diffs.entry(r).or_default();
                if h.len() < 64 || h.contains_key(&d) {
                    *h.entry(d).or_insert(0) += 1;
                }
                *self.val_samples.entry(r).or_insert(0) += 1;
            }
            self.val_last.insert(r, v);
        }
    }

    fn flush_values(&self, deps: &mut LoopDeps) {
        for (&r, samples) in &self.val_samples {
            let (best, hits) = self
                .val_diffs
                .get(&r)
                .and_then(|h| h.iter().max_by_key(|(&d, &c)| (c, std::cmp::Reverse(d))))
                .map(|(&d, &c)| (d, c))
                .unwrap_or((0, 0));
            let e = deps.values.entry(r).or_default();
            e.samples += samples;
            // Merge: keep the globally dominant stride by hit count.
            if hits > e.hits || e.samples == *samples {
                e.best_stride = best;
            }
            e.hits += hits;
        }
    }
}

/// Profile cross-iteration dependences and value patterns for the selected
/// loops.
pub(crate) fn profile_loops(prog: &Program, selection: &[LoopKey], max_steps: u64) -> DepProfile {
    let selected: HashSet<LoopKey> = selection.iter().copied().collect();
    let mut tracker = LoopContextTracker::new(prog);
    let mut mem = Memory::for_program(prog);
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let mut out = DepProfile::default();
    for k in &selected {
        out.loops.entry(*k).or_default();
    }
    let mut states: Vec<DepState> = Vec::new();

    let mut steps = 0u64;
    while steps < max_steps {
        // Values are sampled from the loop frame at iteration boundaries;
        // capture the frame registers *before* stepping if the next event
        // is a boundary. Cheaper: sample after observing `iterated`, using
        // the cursor's current frame (the header's first statement has not
        // yet modified the frame meaningfully for stride purposes).
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;
        let tr = tracker.observe(&ev);

        for (key, _) in &tr.exited {
            if let Some(pos) = states.iter().position(|s| s.key == *key) {
                let st = states.remove(pos);
                st.flush_values(out.loops.get_mut(key).expect("selected"));
            }
        }
        if let Some(key) = tr.entered {
            if selected.contains(&key) {
                states.push(DepState::new(key, ev.depth));
            }
        }
        if let Some(key) = tr.iterated {
            if let Some(st) = states.iter_mut().find(|s| s.key == key) {
                st.iter += 1;
                st.seen.clear();
                out.loops.get_mut(&key).expect("selected").iterations += 1;
                if (ev.depth as usize) < cur.depth() + 1 {
                    // Sample loop-frame registers at the boundary.
                    let frame_regs = cur.regs_at(ev.depth as usize).to_vec();
                    st.sample_values(&frame_regs);
                }
            }
        }

        for st in &mut states {
            observe_deps(prog, st, &ev, &mut out);
        }
    }
    // Flush remaining states.
    for st in states {
        if let Some(d) = out.loops.get_mut(&st.key) {
            st.flush_values(d);
        }
    }
    out
}

/// Attribute one event to one loop's dependence state.
fn observe_deps(prog: &Program, st: &mut DepState, ev: &Event, out: &mut DepProfile) {
    // Maintain the loop-level call-site attribution.
    if ev.depth == st.depth {
        st.callsite = None;
    }
    // The statement this event is attributed to, at loop level.
    let attributed: Option<StmtRef> = if ev.depth == st.depth {
        ev.sref()
    } else {
        st.callsite
    };

    // Register reads at the loop frame: cross-iteration check.
    if ev.depth == st.depth && ev.executed {
        let srcs: Vec<Reg> = match ev.kind {
            EvKind::Inst { func, sref } => prog.func(func).inst(sref).srcs_with_guard(),
            EvKind::Term { func, block } => match &prog.func(func).block(block).term {
                Terminator::Br { cond, .. } => vec![*cond],
                Terminator::Ret(Some(r)) => vec![*r],
                _ => vec![],
            },
        };
        for r in srcs {
            if let Some(&(w_iter, w_sref, changed)) = st.reg_writer.get(&r.0) {
                if w_iter + 1 == st.iter {
                    if let Some(r_sref) = attributed {
                        if st.seen.insert((false, w_sref, r_sref)) {
                            let d = out
                                .loops
                                .get_mut(&st.key)
                                .expect("selected")
                                .reg_deps
                                .entry((w_sref, r_sref))
                                .or_default();
                            d.occurrences += 1;
                            if changed {
                                d.value_changed += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    // Register writes into the loop frame.
    if let Some(dst) = ev.dst {
        if ev.dst_depth() == st.depth {
            let w_sref = if ev.depth == st.depth {
                ev.sref().or(st.callsite)
            } else {
                st.callsite
            };
            if let Some(w) = w_sref {
                let changed = st.reg_vals.get(&dst.0) != Some(&ev.dst_val);
                st.reg_writer.insert(dst.0, (st.iter, w, changed));
            }
            st.reg_vals.insert(dst.0, ev.dst_val);
        }
    }

    // Memory accesses anywhere under the loop.
    if ev.executed {
        if let Some(m) = ev.mem {
            if m.is_store {
                if let Some(w) = attributed {
                    st.mem_writer.insert(m.addr, (st.iter, w));
                }
            } else if let Some(&(w_iter, w_sref)) = st.mem_writer.get(&m.addr) {
                if w_iter + 1 == st.iter {
                    if let Some(r_sref) = attributed {
                        if st.seen.insert((true, w_sref, r_sref)) {
                            let d = out
                                .loops
                                .get_mut(&st.key)
                                .expect("selected")
                                .mem_deps
                                .entry((w_sref, r_sref))
                                .or_default();
                            d.occurrences += 1;
                            d.value_changed += 1;
                        }
                    }
                }
            }
        }
    }

    // Entering a callee from loop level: remember the call site.
    if ev.depth == st.depth && ev.is_call() {
        st.callsite = ev.sref();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::ValuePattern;
    use crate::stats::{GuardCount, LoopDyn};
    use proptest::prelude::*;
    use spt_sir::{BinOp, ProgramBuilder};
    use spt_workloads::gen::{emit_loop_func, DepPattern, LoopSpec, MemPattern};
    use spt_workloads::{benchmark, Scale, BENCHMARK_NAMES};
    use std::collections::BTreeMap;

    type OrderedProgram = (
        u64,
        BTreeMap<LoopKey, LoopDyn>,
        BTreeMap<(FuncId, StmtRef), GuardCount>,
        BTreeMap<(FuncId, BlockId), (u64, u64)>,
        BTreeMap<FuncId, u64>,
        BTreeMap<FuncId, u64>,
        Option<i64>,
        bool,
    );

    fn ordered_program(p: &ProgramProfile) -> OrderedProgram {
        (
            p.total_instrs,
            p.loops.iter().map(|(k, v)| (*k, v.clone())).collect(),
            p.guards.iter().map(|(k, v)| (*k, *v)).collect(),
            p.branches.iter().map(|(k, v)| (*k, *v)).collect(),
            p.func_calls.iter().map(|(k, v)| (*k, *v)).collect(),
            p.func_instrs.iter().map(|(k, v)| (*k, *v)).collect(),
            p.ret,
            p.out_of_fuel,
        )
    }

    type Edges = BTreeMap<(StmtRef, StmtRef), DepCount>;
    type OrderedDeps = BTreeMap<LoopKey, (u64, Edges, Edges, BTreeMap<u32, ValuePattern>)>;

    fn ordered_deps(d: &DepProfile) -> OrderedDeps {
        d.loops
            .iter()
            .map(|(k, l)| {
                (
                    *k,
                    (
                        l.iterations,
                        l.reg_deps.iter().map(|(e, c)| (*e, *c)).collect(),
                        l.mem_deps.iter().map(|(e, c)| (*e, *c)).collect(),
                        l.values.iter().map(|(r, v)| (*r, v.clone())).collect(),
                    ),
                )
            })
            .collect()
    }

    /// Every loop of the program, in function and forest order.
    fn all_loops(prog: &Program) -> Vec<LoopKey> {
        prog.func_ids()
            .flat_map(|func| {
                let (_, _, forest) = analyze_loops(prog.func(func));
                forest
                    .loops
                    .iter()
                    .map(move |l| LoopKey {
                        func,
                        loop_id: l.id,
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Both profilers of `prog` equal their reference.
    fn assert_matches_reference(prog: &Program, selection: &[LoopKey], fuel: u64, what: &str) {
        let dense = crate::profile_program(prog, fuel);
        let reference = profile_program(prog, fuel);
        assert_eq!(
            ordered_program(&dense),
            ordered_program(&reference),
            "{what}: program profile"
        );
        let dense = crate::profile_loops(prog, selection, fuel);
        let reference = profile_loops(prog, selection, fuel);
        assert_eq!(
            ordered_deps(&dense),
            ordered_deps(&reference),
            "{what}: dependence profile"
        );
    }

    #[test]
    fn suite_profiles_match_reference() {
        for scale in [Scale::Test, Scale::Small] {
            for name in BENCHMARK_NAMES {
                let w = benchmark(name, scale);
                let loops = all_loops(&w.program);
                assert_matches_reference(&w.program, &loops, 20_000_000, name);
            }
        }
    }

    /// Deterministic generator state for one proptest case.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n.max(1)
        }
    }

    const NAMES: [&str; 3] = ["gen_a", "gen_b", "gen_c"];

    /// A program mixing generated loops (calls, guards, memory patterns),
    /// a statically nested loop pair and a recursive function whose loop
    /// calls itself, so one loop is live at several depths at once.
    fn generated_program(rng: &mut Rng) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut base = 64u64;
        let mut funcs = Vec::new();
        for name in NAMES.iter().take(1 + rng.below(3) as usize) {
            let mut spec = LoopSpec::basic(name);
            spec.body_alu = 1 + rng.below(6) as usize;
            spec.body_loads = rng.below(3) as usize;
            spec.body_stores = rng.below(3) as usize;
            spec.call_size = [0, 0, 5][rng.below(3) as usize];
            spec.trip = 1 + rng.below(12) as usize;
            spec.dep = match rng.below(6) {
                0 => DepPattern::Induction,
                1 => DepPattern::ReductionCheap,
                2 => DepPattern::ReductionDeep,
                3 => DepPattern::RareUpdate(0.3),
                4 => DepPattern::Chase,
                _ => DepPattern::Predictable(1 + rng.below(3) as i64),
            };
            spec.mem = match rng.below(3) {
                0 => MemPattern::Array,
                1 => MemPattern::Stride(1 + rng.below(4) as usize),
                _ => MemPattern::Random,
            };
            spec.guard_prob = [None, Some(0.5)][rng.below(2) as usize];
            let words = 64;
            funcs.push((emit_loop_func(&mut pb, &spec, base, words), spec.trip));
            base += words as u64 + 16;
        }

        let rec = pb.declare("rec", 1);
        let mut g = pb.build(rec);
        let n = g.param(0);
        let i = g.reg();
        let acc = g.reg();
        let zero = g.const_reg(0);
        let trip = g.const_reg(1 + rng.below(3) as i64);
        let body = g.new_block();
        let exit = g.new_block();
        g.const_(i, 0);
        g.const_(acc, 0);
        g.jmp(body);
        g.switch_to(body);
        let old = g.reg();
        g.load(old, n, 0);
        g.bin(BinOp::Add, acc, acc, old);
        g.store(acc, n, 1);
        let deeper = g.reg();
        g.bin(BinOp::CmpLt, deeper, zero, n);
        let n1 = g.reg();
        g.addi(n1, n, -1);
        let r = g.reg();
        g.guard_when(deeper);
        g.call(rec, &[n1], Some(r));
        g.bin(BinOp::Xor, acc, acc, r);
        g.unguard();
        g.addi(i, i, 1);
        let c = g.reg();
        g.bin(BinOp::CmpLt, c, i, trip);
        g.br(c, body, exit);
        g.switch_to(exit);
        g.ret(Some(acc));
        g.finish();

        let mut m = pb.func("main", 0);
        let acc = m.reg();
        let j = m.reg();
        let k = m.reg();
        m.const_(acc, 0);
        m.const_(j, 0);
        let outer = m.new_block();
        let inner = m.new_block();
        let tail = m.new_block();
        let done = m.new_block();
        m.jmp(outer);
        m.switch_to(outer);
        for &(f, trip) in &funcs {
            let t = m.const_reg(trip as i64);
            let r = m.reg();
            m.call(f, &[t, acc], Some(r));
            m.bin(BinOp::Xor, acc, acc, r);
        }
        let depth = m.const_reg(rng.below(4) as i64);
        let r = m.reg();
        m.call(rec, &[depth], Some(r));
        m.bin(BinOp::Add, acc, acc, r);
        m.const_(k, 0);
        m.jmp(inner);
        m.switch_to(inner);
        m.bin(BinOp::Add, acc, acc, k);
        m.addi(k, k, 1);
        let nk = m.const_reg(1 + rng.below(5) as i64);
        let ck = m.reg();
        m.bin(BinOp::CmpLt, ck, k, nk);
        m.br(ck, inner, tail);
        m.switch_to(tail);
        m.addi(j, j, 1);
        let nj = m.const_reg(1 + rng.below(4) as i64);
        let cj = m.reg();
        m.bin(BinOp::CmpLt, cj, j, nj);
        m.br(cj, outer, done);
        m.switch_to(done);
        m.ret(Some(acc));
        let main = m.finish();
        pb.finish(main, base as usize + 64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On generated programs — with nesting, calls, recursion, guards
        /// and fuel cut-offs — the dense profilers equal the reference.
        #[test]
        fn generated_profiles_match_reference(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let prog = generated_program(&mut rng);
            let mut selection: Vec<LoopKey> = all_loops(&prog)
                .into_iter()
                .filter(|_| rng.below(4) != 0)
                .collect();
            if let Some(&k) = selection.first() {
                selection.push(k);
            }
            selection.push(LoopKey { func: FuncId(0), loop_id: LoopId(99) });
            let fuel = if rng.below(3) == 0 { 1 + rng.below(3000) } else { 5_000_000 };
            assert_matches_reference(&prog, &selection, fuel, &format!("seed {seed}"));
        }
    }
}
