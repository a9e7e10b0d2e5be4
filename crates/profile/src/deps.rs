//! Cross-iteration dependence and value profiling for selected loops.
//!
//! For each profiled loop, every adjacent-iteration (distance-1) register or
//! memory dependence between static statements is counted, giving the
//! *dependence probability* annotations of the SPT cost model (§4.1). For
//! register dependences the profiler also counts how often the written
//! value actually *changed*, which is what the value-based register
//! dependence checker of §3.2 cares about.
//!
//! Statements executed inside functions called from the loop are attributed
//! to their loop-level call site — a dependence into a callee is a
//! dependence on the call statement as far as loop partitioning is
//! concerned (calls move as a unit).
//!
//! The same pass samples every loop-frame register at each iteration
//! boundary and fits a stride predictor (`x' = x + d`, `d = 0` being
//! last-value), producing the predictability data used by software value
//! prediction (§4.4).

use crate::context::{LoopContextTracker, LoopKey};
use spt_interp::{Cursor, DecodedProgram, EvKind, Event, MemView, Memory};
use spt_sir::{Program, StmtRef};
use std::collections::HashMap;

/// Occurrence counts of one cross-iteration dependence edge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepCount {
    /// Iterations in which the dependence manifested.
    pub occurrences: u64,
    /// Of those, iterations where the source write changed the value
    /// (always equal to `occurrences` for memory dependences, which the SPT
    /// hardware checks by address).
    pub value_changed: u64,
}

/// Stride-predictability of one loop-frame register.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValuePattern {
    /// Iteration-boundary samples observed (≥ 1 apart).
    pub samples: u64,
    /// Most frequent successive difference.
    pub best_stride: i64,
    /// Samples matching `best_stride`.
    pub hits: u64,
}

impl ValuePattern {
    pub fn hit_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.hits as f64 / self.samples as f64
        }
    }
}

/// Dependence profile of one loop.
#[derive(Clone, Debug, Default)]
pub struct LoopDeps {
    /// Iterations observed across all invocations.
    pub iterations: u64,
    /// (writer stmt, reader stmt) -> counts, register dependences.
    pub reg_deps: HashMap<(StmtRef, StmtRef), DepCount>,
    /// (writer stmt, reader stmt) -> counts, memory dependences.
    pub mem_deps: HashMap<(StmtRef, StmtRef), DepCount>,
    /// Per loop-frame register: stride predictability.
    pub values: HashMap<u32, ValuePattern>,
}

impl LoopDeps {
    /// Probability that the given register dependence fires in an
    /// iteration.
    pub fn reg_prob(&self, edge: (StmtRef, StmtRef)) -> f64 {
        self.prob(self.reg_deps.get(&edge))
    }

    /// Probability weighted by value-changed (the value-based checker only
    /// trips when the value changed).
    pub fn reg_prob_value(&self, edge: (StmtRef, StmtRef)) -> f64 {
        match self.reg_deps.get(&edge) {
            Some(c) if self.iterations > 1 => c.value_changed as f64 / (self.iterations - 1) as f64,
            _ => 0.0,
        }
    }

    pub fn mem_prob(&self, edge: (StmtRef, StmtRef)) -> f64 {
        self.prob(self.mem_deps.get(&edge))
    }

    fn prob(&self, c: Option<&DepCount>) -> f64 {
        match c {
            Some(c) if self.iterations > 1 => c.occurrences as f64 / (self.iterations - 1) as f64,
            _ => 0.0,
        }
    }
}

/// Dependence profiles of all selected loops.
#[derive(Clone, Debug, Default)]
pub struct DepProfile {
    pub loops: HashMap<LoopKey, LoopDeps>,
}

/// Per-iteration identity: every iteration of every loop invocation gets
/// a fresh epoch, so "written in this invocation's previous iteration" is
/// one equality test against a stamp, and stamps never need clearing.
type Epoch = u64;

/// Stamp of a register or word not written since its state was reset.
const UNWRITTEN: Epoch = 0;
/// Previous-iteration epoch of an invocation still in its first
/// iteration: equals no stamp.
const NO_EPOCH: Epoch = Epoch::MAX;

/// Last loop-level write of a register or memory word.
#[derive(Clone, Copy)]
struct Write {
    epoch: Epoch,
    writer: StmtRef,
    /// Whether the write changed the register's value (registers only).
    changed: bool,
}

const NO_WRITE: Write = Write {
    epoch: UNWRITTEN,
    writer: StmtRef {
        block: spt_sir::BlockId(0),
        index: 0,
    },
    changed: false,
};

/// Dense numbering of statement positions `(block, index)` shared by all
/// functions. Dependence edges are keyed by bare [`StmtRef`]s, as in
/// [`LoopDeps`], so equal positions in different functions share a slot.
struct Slots {
    base: Vec<u32>,
    len: usize,
}

impl Slots {
    fn new(prog: &Program) -> Slots {
        let n_blocks = prog.funcs.iter().map(|f| f.blocks.len()).max().unwrap_or(0);
        let mut widest = vec![0usize; n_blocks];
        for f in &prog.funcs {
            for (b, blk) in f.blocks.iter().enumerate() {
                widest[b] = widest[b].max(blk.insts.len());
            }
        }
        let mut base = Vec::with_capacity(n_blocks);
        let mut len = 0usize;
        for w in widest {
            base.push(len as u32);
            len += w;
        }
        Slots { base, len }
    }

    #[inline]
    fn of(&self, s: StmtRef) -> usize {
        self.base[s.block.index()] as usize + s.index as usize
    }
}

const NO_EDGE: u32 = u32::MAX;

/// One dependence edge with its counts.
struct Edge {
    mem: bool,
    writer: StmtRef,
    reader: StmtRef,
    count: DepCount,
    /// Epoch of the last iteration that counted this edge (edges count at
    /// most once per iteration).
    seen: Epoch,
    /// Next edge with the same reader slot.
    next: u32,
}

/// Edges chained per reader slot: a lookup walks the few edges that read
/// at one statement.
struct EdgeTable {
    head: Vec<u32>,
    edges: Vec<Edge>,
}

impl EdgeTable {
    fn new(n_slots: usize) -> EdgeTable {
        EdgeTable {
            head: vec![NO_EDGE; n_slots],
            edges: Vec::new(),
        }
    }

    fn get(&mut self, slots: &Slots, mem: bool, writer: StmtRef, reader: StmtRef) -> &mut Edge {
        let slot = slots.of(reader);
        let mut i = self.head[slot];
        while i != NO_EDGE {
            let e = &self.edges[i as usize];
            if e.mem == mem && e.writer == writer && e.reader == reader {
                return &mut self.edges[i as usize];
            }
            i = e.next;
        }
        self.edges.push(Edge {
            mem,
            writer,
            reader,
            count: DepCount::default(),
            seen: UNWRITTEN,
            next: self.head[slot],
        });
        self.head[slot] = (self.edges.len() - 1) as u32;
        self.edges.last_mut().expect("just pushed")
    }

    /// Empty the table, in time proportional to its edges.
    fn clear(&mut self, slots: &Slots) {
        for e in self.edges.drain(..) {
            self.head[slots.of(e.reader)] = NO_EDGE;
        }
    }
}

/// Iteration-boundary samples of one register.
#[derive(Clone, Default)]
struct RegSamples {
    last: Option<i64>,
    samples: u64,
    /// (stride, occurrences), sorted by stride; at most 64 strides.
    strides: Vec<(i64, u64)>,
}

impl RegSamples {
    fn add(&mut self, v: i64) {
        if let Some(prev) = self.last {
            let d = v.wrapping_sub(prev);
            match self.strides.binary_search_by_key(&d, |&(s, _)| s) {
                Ok(i) => self.strides[i].1 += 1,
                Err(i) if self.strides.len() < 64 => self.strides.insert(i, (d, 1)),
                Err(_) => {}
            }
            self.samples += 1;
        }
        self.last = Some(v);
    }

    /// The most frequent stride and its count; ties go to the smallest
    /// stride.
    fn best(&self) -> (i64, u64) {
        self.strides.iter().fold(
            (0, 0),
            |best, &(d, c)| if c > best.1 { (d, c) } else { best },
        )
    }
}

/// What a profiled loop accumulates over all its invocations.
struct LoopAcc {
    iterations: u64,
    edges: EdgeTable,
    values: Vec<Option<ValuePattern>>,
}

/// Live profiling state for one active loop invocation. States are
/// recycled across invocations, and [`DepState::reset`] costs what the
/// previous invocation touched, not the size of its tables.
struct DepState {
    /// Index of the profiled loop's [`LoopAcc`].
    acc: usize,
    depth: u32,
    iter_epoch: Epoch,
    prev_epoch: Epoch,
    /// Loop-level call site when executing inside a callee.
    callsite: Option<StmtRef>,
    /// Per register: last loop-frame write.
    reg_writer: Vec<Write>,
    /// Per register: current value, to detect silent re-writes.
    reg_vals: Vec<Option<i64>>,
    /// Per memory word: last store under the loop.
    mem_writer: Vec<Write>,
    edges: EdgeTable,
    /// Per register: iteration-boundary value samples.
    values: Vec<RegSamples>,
}

impl DepState {
    fn new(n_regs: usize, mem_words: usize, n_slots: usize) -> DepState {
        DepState {
            acc: 0,
            depth: 0,
            iter_epoch: UNWRITTEN,
            prev_epoch: NO_EPOCH,
            callsite: None,
            reg_writer: vec![NO_WRITE; n_regs],
            reg_vals: vec![None; n_regs],
            mem_writer: vec![NO_WRITE; mem_words],
            edges: EdgeTable::new(n_slots),
            values: Vec::new(),
        }
    }

    /// Start a fresh invocation of accumulator `acc`'s loop at `depth`.
    /// Memory stamps need no reset: they hold epochs of earlier
    /// invocations, which no later `prev_epoch` equals.
    fn reset(&mut self, acc: usize, depth: u32, epoch: Epoch, slots: &Slots) {
        self.acc = acc;
        self.depth = depth;
        self.iter_epoch = epoch;
        self.prev_epoch = NO_EPOCH;
        self.callsite = None;
        self.reg_writer.fill(NO_WRITE);
        self.reg_vals.fill(None);
        self.edges.clear(slots);
        for v in &mut self.values {
            v.last = None;
            v.samples = 0;
            v.strides.clear();
        }
    }

    fn sample_values(&mut self, regs: &[i64]) {
        if self.values.len() < regs.len() {
            self.values.resize_with(regs.len(), RegSamples::default);
        }
        for (s, &v) in self.values.iter_mut().zip(regs) {
            s.add(v);
        }
    }

    /// Count the edge `(writer, reader)`, once per iteration.
    fn depend(&mut self, slots: &Slots, mem: bool, w: Write, reader: StmtRef) {
        let epoch = self.iter_epoch;
        let e = self.edges.get(slots, mem, w.writer, reader);
        if e.seen != epoch {
            e.seen = epoch;
            e.count.occurrences += 1;
            if w.changed {
                e.count.value_changed += 1;
            }
        }
    }

    /// Fold this invocation into its loop's accumulator.
    fn flush(&mut self, acc: &mut LoopAcc, slots: &Slots) {
        for e in &self.edges.edges {
            let c = &mut acc.edges.get(slots, e.mem, e.writer, e.reader).count;
            c.occurrences += e.count.occurrences;
            c.value_changed += e.count.value_changed;
        }
        if acc.values.len() < self.values.len() {
            acc.values.resize(self.values.len(), None);
        }
        for (s, total) in self.values.iter().zip(&mut acc.values) {
            if s.samples == 0 {
                continue;
            }
            let (best, hits) = s.best();
            let e = total.get_or_insert_with(ValuePattern::default);
            e.samples += s.samples;
            // Merge: keep the globally dominant stride by hit count.
            if hits > e.hits || e.samples == s.samples {
                e.best_stride = best;
            }
            e.hits += hits;
        }
    }
}

/// Profile cross-iteration dependences and value patterns for the selected
/// loops.
pub fn profile_loops(prog: &Program, selection: &[LoopKey], max_steps: u64) -> DepProfile {
    let mut tracker = LoopContextTracker::new(prog);
    let mut mem = Memory::for_program(prog);
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let slots = Slots::new(prog);

    // One accumulator per distinct selected key, in first-selected order;
    // `acc_of[loop index]` maps the tracker's dense loop index to it.
    let mut keys: Vec<LoopKey> = Vec::new();
    let mut acc_of: Vec<Option<usize>> = vec![None; tracker.n_loops()];
    for &k in selection {
        if keys.contains(&k) {
            continue;
        }
        if let Some(i) = tracker.index_of(k) {
            acc_of[i] = Some(keys.len());
        }
        keys.push(k);
    }
    let mut accs: Vec<LoopAcc> = keys
        .iter()
        .map(|_| LoopAcc {
            iterations: 0,
            edges: EdgeTable::new(slots.len),
            values: Vec::new(),
        })
        .collect();

    // Registers are indexed as in the widest frame. With recursion an
    // exit retires the loop's first live state, which may be an outer
    // invocation's; the inner state left behind can then see another
    // function's frame at its depth.
    let n_regs = prog
        .funcs
        .iter()
        .map(|f| f.n_regs as usize)
        .max()
        .unwrap_or(0);
    let mem_words = mem.words();
    let mut states: Vec<DepState> = Vec::new();
    let mut spare: Vec<DepState> = Vec::new();
    let mut next_epoch: Epoch = UNWRITTEN + 1;

    let mut steps = 0u64;
    while steps < max_steps {
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;
        // The first live state of the loop is the one that exits or
        // iterates (with recursion, that can be an outer invocation's).
        let tr = tracker.observe(&ev, |al| {
            if let Some(a) = acc_of[al.index] {
                if let Some(pos) = states.iter().position(|s| s.acc == a) {
                    let mut st = states.remove(pos);
                    st.flush(&mut accs[a], &slots);
                    spare.push(st);
                }
            }
        });
        if let Some(index) = tr.iterated {
            if let Some(a) = acc_of[index] {
                if tr.entered {
                    let mut st = spare
                        .pop()
                        .unwrap_or_else(|| DepState::new(n_regs, mem_words, slots.len));
                    st.reset(a, ev.depth, next_epoch, &slots);
                    next_epoch += 1;
                    states.push(st);
                }
                if let Some(st) = states.iter_mut().find(|s| s.acc == a) {
                    st.prev_epoch = st.iter_epoch;
                    st.iter_epoch = next_epoch;
                    next_epoch += 1;
                    accs[a].iterations += 1;
                    if (ev.depth as usize) < cur.depth() + 1 {
                        // Sample loop-frame registers at the boundary.
                        st.sample_values(cur.regs_at(ev.depth as usize));
                    }
                }
            }
        }

        for st in &mut states {
            observe_deps(&dec, &slots, st, &ev);
        }
    }
    for mut st in states {
        st.flush(&mut accs[st.acc], &slots);
    }

    let loops = keys
        .into_iter()
        .zip(accs)
        .map(|(k, acc)| {
            let mut d = LoopDeps {
                iterations: acc.iterations,
                ..LoopDeps::default()
            };
            for e in acc.edges.edges {
                let map = if e.mem {
                    &mut d.mem_deps
                } else {
                    &mut d.reg_deps
                };
                map.insert((e.writer, e.reader), e.count);
            }
            d.values = acc
                .values
                .into_iter()
                .enumerate()
                .filter_map(|(r, v)| Some((r as u32, v?)))
                .collect();
            (k, d)
        })
        .collect();
    DepProfile { loops }
}

/// Attribute one event to one loop's dependence state.
#[inline]
fn observe_deps(dec: &DecodedProgram, slots: &Slots, st: &mut DepState, ev: &Event) {
    let at_loop_level = ev.depth == st.depth;
    // Maintain the loop-level call-site attribution.
    if at_loop_level {
        st.callsite = None;
    }
    // The statement this event is attributed to, at loop level.
    let attributed: Option<StmtRef> = if at_loop_level {
        ev.sref()
    } else {
        st.callsite
    };

    // Register reads at the loop frame: cross-iteration check. Only
    // statements are attributed at loop level, so terminator reads never
    // form an edge.
    if at_loop_level && ev.executed {
        if let EvKind::Inst { func, sref } = ev.kind {
            for r in dec.func(func).srcs_with_guard(sref) {
                let w = st.reg_writer[r.index()];
                if w.epoch == st.prev_epoch {
                    st.depend(slots, false, w, sref);
                }
            }
        }
    }

    // Register writes into the loop frame.
    if let Some(dst) = ev.dst {
        if ev.dst_depth() == st.depth {
            let w_sref = if at_loop_level {
                ev.sref().or(st.callsite)
            } else {
                st.callsite
            };
            let old = &mut st.reg_vals[dst.index()];
            if let Some(w) = w_sref {
                st.reg_writer[dst.index()] = Write {
                    epoch: st.iter_epoch,
                    writer: w,
                    changed: *old != Some(ev.dst_val),
                };
            }
            *old = Some(ev.dst_val);
        }
    }

    // Memory accesses anywhere under the loop.
    if ev.executed {
        if let (Some(m), Some(a)) = (ev.mem, attributed) {
            let slot = &mut st.mem_writer[m.addr as usize];
            if m.is_store {
                *slot = Write {
                    epoch: st.iter_epoch,
                    writer: a,
                    changed: true,
                };
            } else if slot.epoch == st.prev_epoch {
                let w = *slot;
                st.depend(slots, true, w, a);
            }
        }
    }

    // Entering a callee from loop level: remember the call site.
    if at_loop_level && ev.is_call() {
        st.callsite = ev.sref();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{analyze_loops, BinOp, BlockId, LoopId, ProgramBuilder, Reg};

    /// acc = acc + i each iteration: a cross-iteration reg dep on acc, plus
    /// i is a stride-1 induction variable.
    fn reduction_loop(n: i64) -> (Program, LoopKey, Reg, Reg) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let acc = f.reg();
        let nn = f.const_reg(n);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(acc, 0);
        f.jmp(body);
        f.switch_to(body);
        f.bin(BinOp::Add, acc, acc, i);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(acc));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        (prog, key, acc, i)
    }

    #[test]
    fn detects_cross_iteration_reg_dep() {
        let (prog, key, _acc, _i) = reduction_loop(50);
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        assert_eq!(deps.iterations, 50);
        // acc written by stmt 0 of body (bb1), read by stmt 0 next iter.
        let acc_stmt = StmtRef::new(BlockId(1), 0);
        let c = deps
            .reg_deps
            .get(&(acc_stmt, acc_stmt))
            .expect("acc self-dependence found");
        assert_eq!(c.occurrences, 49);
        assert!((deps.reg_prob((acc_stmt, acc_stmt)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn induction_variable_is_stride_predictable() {
        let (prog, key, _acc, i) = reduction_loop(50);
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let vp = dp.loops[&key]
            .values
            .get(&i.0)
            .expect("induction var sampled");
        assert_eq!(vp.best_stride, 1);
        assert!(vp.hit_rate() > 0.95, "rate {}", vp.hit_rate());
    }

    #[test]
    fn tied_strides_resolve_to_the_smallest() {
        // x += 1 + (i & 1): successive boundary samples of x differ by 1
        // and 2 in turn, four times each over nine iterations.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let x = f.reg();
        let one = f.const_reg(1);
        let nn = f.const_reg(9);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(x, 0);
        f.jmp(body);
        f.switch_to(body);
        let odd = f.reg();
        f.bin(BinOp::And, odd, i, one);
        let step = f.reg();
        f.bin(BinOp::Add, step, odd, one);
        f.bin(BinOp::Add, x, x, step);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        // Repeated runs: a choice that followed hash order would vary.
        for _ in 0..8 {
            let dp = profile_loops(&prog, &[key], 1_000_000);
            let vp = &dp.loops[&key].values[&x.0];
            assert_eq!((vp.samples, vp.hits, vp.best_stride), (8, 4, 1));
        }
    }

    #[test]
    fn memory_dependence_detected() {
        // Iteration i stores mem[0]; iteration i+1 loads mem[0].
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(20);
        let zero = f.const_reg(0);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        let v = f.reg();
        f.load(v, zero, 0);
        let t = f.reg();
        f.bin(BinOp::Add, t, v, i);
        f.store(t, zero, 0);
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let id = f.finish();
        let prog = pb.finish(id, 4);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        assert!(
            !deps.mem_deps.is_empty(),
            "store->load cross-iteration dep expected"
        );
        let ((w, r), c) = deps.mem_deps.iter().next().unwrap();
        assert_eq!(c.occurrences, 19);
        assert!(w.block == BlockId(1) && r.block == BlockId(1));
        assert!((deps.mem_prob((*w, *r)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn callee_dep_attributed_to_call_site() {
        // Loop calls bump() which stores to mem[0] and next iteration calls
        // read() which loads mem[0]: dependence between the two call sites.
        let mut pb = ProgramBuilder::new();
        let bump = pb.declare("bump", 1);
        let read = pb.declare("read", 0);
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.const_reg(12);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.jmp(body);
        f.switch_to(body);
        let r0 = f.reg();
        f.call(read, &[], Some(r0)); // reads mem[0]
        f.call(bump, &[i], None); // writes mem[0]
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(i));
        let main = f.finish();
        let mut g = pb.build(bump);
        let p = g.param(0);
        let z = g.const_reg(0);
        g.store(p, z, 0);
        g.ret(None);
        g.finish();
        let mut h = pb.build(read);
        let z2 = h.const_reg(0);
        let v = h.reg();
        h.load(v, z2, 0);
        h.ret(Some(v));
        h.finish();
        let prog = pb.finish(main, 4);
        prog.verify().unwrap();
        let (_, _, forest) = analyze_loops(prog.func(main));
        let key = LoopKey {
            func: main,
            loop_id: forest.loops[0].id,
        };
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        // The dep's endpoints must be loop-body statements (the call sites).
        let ((w, r), c) = deps
            .mem_deps
            .iter()
            .next()
            .expect("cross-iteration dep through calls");
        assert_eq!(w.block, BlockId(1));
        assert_eq!(r.block, BlockId(1));
        assert!(c.occurrences >= 10);
    }

    #[test]
    fn unselected_loop_not_profiled() {
        let (prog, key, ..) = reduction_loop(10);
        let other = LoopKey {
            func: key.func,
            loop_id: LoopId(99),
        };
        let dp = profile_loops(&prog, &[other], 1_000_000);
        assert!(dp.loops[&other].reg_deps.is_empty());
        assert_eq!(dp.loops[&other].iterations, 0);
    }

    #[test]
    fn silent_rewrites_counted_as_unchanged() {
        // x is rewritten with the same constant each iteration; y = x + 0
        // creates a dependence, but value_changed stays ~0.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let x = f.reg();
        let nn = f.const_reg(30);
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(x, 7);
        f.jmp(body);
        f.switch_to(body);
        let y = f.reg();
        f.bin(BinOp::Add, y, x, i); // reads x
        f.const_(x, 7); // silently rewrites x
        f.addi(i, i, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 0);
        let (_, _, forest) = analyze_loops(prog.func(id));
        let key = LoopKey {
            func: id,
            loop_id: forest.loops[0].id,
        };
        let dp = profile_loops(&prog, &[key], 1_000_000);
        let deps = &dp.loops[&key];
        let edge = deps
            .reg_deps
            .iter()
            .find(|((w, _), _)| w.index == 1) // the `x = 7` rewrite
            .map(|(e, _)| *e)
            .expect("x dep present");
        assert!(deps.reg_prob(edge) > 0.9);
        assert!(
            deps.reg_prob_value(edge) < 0.1,
            "value-based probability must be ~0, got {}",
            deps.reg_prob_value(edge)
        );
    }
}
