//! The two-pass cost-driven compilation driver (§4.1).
//!
//! Pass 1: profile the program; select loop candidates by the simple
//! criteria (body size, trip count, coverage); preprocess (if-conversion,
//! unrolling); profile dependences and value patterns of the candidates;
//! find each candidate's optimal partition and estimated speedup. No
//! permanent transformation happens.
//!
//! Pass 2: evaluate all candidate partitions together, select all good (and
//! only good) SPT loops — non-nested, estimated speedup above threshold —
//! and apply the SPT loop transformation to produce the final program.
//!
//! [`compile_with_profile`] composes three parts: [`select_candidates`]
//! (pass 1a), the candidates' dependence profile, and
//! [`compile_candidates`] (the rest). Pass 1a never reads the cost model,
//! so callers compiling one program for several core widths can compute
//! the dependence profile once and hand it to each compile.

use crate::body::{linearize, LinearBody, LinearizeError};
use crate::cost::CostParams;
use crate::ddg::Ddg;
use crate::partition::{search_partition, Partition, PartitionError};
use crate::transform::transform_loop;
use crate::unroll::unroll_linear;
use spt_profile::{profile_loops, profile_program, DepProfile, LoopKey, ProgramProfile};
use spt_sir::{analyze_loops, BlockId, Cfg, FuncId, Loop, Program};
use spt_trace::{NullSink, TraceEvent, TraceSink};
use std::collections::HashMap;

/// Tunables of the compilation framework.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Interpreter fuel for each profiling run.
    pub profile_fuel: u64,
    /// Maximum average dynamic body size (instructions) — paper: 1000.
    pub size_limit: f64,
    /// Relaxed limit applied when a single loop dominates execution
    /// (the paper's gap exception: 2500).
    pub big_size_limit: f64,
    /// Coverage above which the relaxed limit applies.
    pub big_coverage: f64,
    /// Minimum average dynamic body size (too-small bodies are unrollable
    /// but below this even unrolling will not amortize the overheads).
    pub min_body: f64,
    /// Minimum average trip count.
    pub min_trip: f64,
    /// Minimum fraction of program execution spent in the loop.
    pub min_coverage: f64,
    /// Minimum estimated speedup for selection (pass 2).
    pub min_speedup: f64,
    /// Unroll bodies smaller than this many instructions.
    pub unroll_below: f64,
    pub unroll_factor: usize,
    pub enable_unroll: bool,
    pub enable_svp: bool,
    pub cost: CostParams,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            profile_fuel: 20_000_000,
            size_limit: 1000.0,
            big_size_limit: 2500.0,
            big_coverage: 0.30,
            min_body: 4.0,
            min_trip: 3.0,
            min_coverage: 0.003,
            min_speedup: 1.05,
            unroll_below: 16.0,
            unroll_factor: 4,
            enable_unroll: true,
            enable_svp: true,
            cost: CostParams::default(),
        }
    }
}

/// Why a loop was not speculatively parallelized.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// Structural (multi-exit, inner loop, bad latch).
    Structure(LinearizeError),
    LowCoverage(f64),
    ShortTrip(f64),
    BodyTooBig(f64),
    BodyTooSmall(f64),
    TooManyViolationCandidates(usize),
    NotProfitable(f64),
    /// Contains or is contained in a better selected loop.
    Nested,
}

/// A selected, transformed SPT loop.
#[derive(Clone, Debug)]
pub struct SptLoopInfo {
    pub key: LoopKey,
    pub func: FuncId,
    /// The transformed body block (also the fork start-point).
    pub body_block: BlockId,
    pub preheader: BlockId,
    pub exit_stub: BlockId,
    pub est_speedup: f64,
    pub misspec_cost: f64,
    pub pre_size: usize,
    pub body_size: usize,
    pub coverage: f64,
    pub unroll: usize,
    pub n_moved: usize,
    pub n_cloned: usize,
    pub n_svp: usize,
}

/// Output of the SPT compiler.
#[derive(Clone, Debug)]
pub struct CompileResult {
    pub program: Program,
    pub loops: Vec<SptLoopInfo>,
    pub rejected: Vec<(LoopKey, RejectReason)>,
    pub profile: ProgramProfile,
}

struct Pass1Candidate {
    key: LoopKey,
    l: Loop,
    lb: LinearBody,
    part: Partition,
    coverage: f64,
    unroll: usize,
}

/// Record a rejection and mirror it into the trace (selection decisions are
/// compile-time facts, stamped cycle 0; the reason travels as its `Debug`
/// rendering because `spt-trace` sits below this crate).
fn push_reject(
    rejected: &mut Vec<(LoopKey, RejectReason)>,
    sink: &mut dyn TraceSink,
    key: LoopKey,
    reason: RejectReason,
) {
    if sink.enabled() {
        sink.emit(
            0,
            TraceEvent::LoopRejected {
                func: key.func,
                loop_id: key.loop_id.0,
                reason: format!("{reason:?}"),
            },
        );
    }
    rejected.push((key, reason));
}

/// Run the full two-pass SPT compilation.
pub fn compile(prog: &Program, opts: &CompileOptions) -> CompileResult {
    let profile = profile_program(prog, opts.profile_fuel);
    compile_with_profile(prog, opts, profile)
}

/// Run the two-pass compilation against an already-collected profile.
///
/// `compile` is `compile_with_profile ∘ profile_program`; callers that
/// profile the program for other purposes (Figure 6, the sweep engine's
/// memo cache) can reuse that work here instead of re-interpreting the
/// whole program. The profile must have been collected with
/// `opts.profile_fuel` for results to match `compile`.
pub fn compile_with_profile(
    prog: &Program,
    opts: &CompileOptions,
    profile: ProgramProfile,
) -> CompileResult {
    compile_with_profile_traced(prog, opts, profile, &mut NullSink)
}

/// [`compile_with_profile`] with an explicit trace sink receiving the
/// driver's selection events (`PartitionChosen`, `LoopSelected`,
/// `LoopRejected`).
///
/// This is the composition of the driver's three parts:
/// [`select_candidates`], the dependence profile of the candidates
/// ([`Candidates::keys`] through [`profile_loops`]), and
/// [`compile_candidates`].
pub fn compile_with_profile_traced(
    prog: &Program,
    opts: &CompileOptions,
    profile: ProgramProfile,
    sink: &mut dyn TraceSink,
) -> CompileResult {
    let candidates = select_candidates(prog, opts, &profile, sink);
    let deps = profile_loops(prog, &candidates.keys(), opts.profile_fuel);
    compile_candidates(prog, opts, profile, candidates, &deps, sink)
}

/// The loops that pass pass 1a's simple selection criteria, plus the
/// loops pass 1a rejected. Built by [`select_candidates`].
pub struct Candidates {
    loops: Vec<(LoopKey, Loop, Cfg)>,
    rejected: Vec<(LoopKey, RejectReason)>,
}

impl Candidates {
    /// The candidates in enumeration order (functions in order, loops in
    /// forest order): the selection their dependence profile must cover.
    pub fn keys(&self) -> Vec<LoopKey> {
        self.loops.iter().map(|(k, _, _)| *k).collect()
    }
}

/// Pass 1a: enumerate loops and apply the simple selection criteria
/// (coverage, trip count, body size). Reads only the program profile and
/// the selection options of `opts`, never the cost model, so every core
/// width shares one result.
pub fn select_candidates(
    prog: &Program,
    opts: &CompileOptions,
    profile: &ProgramProfile,
    sink: &mut dyn TraceSink,
) -> Candidates {
    let mut rejected: Vec<(LoopKey, RejectReason)> = Vec::new();
    let mut structural: Vec<(LoopKey, Loop, Cfg)> = Vec::new();
    for fid in prog.func_ids() {
        let f = prog.func(fid);
        let (_cfg, _, forest) = analyze_loops(f);
        for l in &forest.loops {
            let key = LoopKey {
                func: fid,
                loop_id: l.id,
            };
            let Some(dynstats) = profile.loops.get(&key) else {
                continue; // never executed
            };
            let cov = profile.coverage(key);
            if cov < opts.min_coverage {
                push_reject(&mut rejected, sink, key, RejectReason::LowCoverage(cov));
                continue;
            }
            let trip = dynstats.avg_trip();
            if trip < opts.min_trip {
                push_reject(&mut rejected, sink, key, RejectReason::ShortTrip(trip));
                continue;
            }
            let body = dynstats.avg_body_size();
            let limit = if cov >= opts.big_coverage {
                opts.big_size_limit
            } else {
                opts.size_limit
            };
            if body > limit {
                push_reject(&mut rejected, sink, key, RejectReason::BodyTooBig(body));
                continue;
            }
            if body < opts.min_body {
                push_reject(&mut rejected, sink, key, RejectReason::BodyTooSmall(body));
                continue;
            }
            structural.push((key, l.clone(), Cfg::new(f)));
        }
    }
    Candidates {
        loops: structural,
        rejected,
    }
}

/// Passes 1c and 2 over pass 1a's `candidates`, given their dependence
/// profile `dep_profile` (collected with `opts.profile_fuel` over
/// [`Candidates::keys`]): linearize, preprocess and search partitions,
/// then select globally and transform.
pub fn compile_candidates(
    prog: &Program,
    opts: &CompileOptions,
    profile: ProgramProfile,
    candidates: Candidates,
    dep_profile: &DepProfile,
    sink: &mut dyn TraceSink,
) -> CompileResult {
    let Candidates {
        loops: structural,
        mut rejected,
    } = candidates;

    // Profiled call costs for the misspeculation cost model.
    let call_costs: HashMap<FuncId, f64> = prog
        .func_ids()
        .filter_map(|fid| profile.avg_call_cost(fid).map(|c| (fid, c)))
        .collect();

    // Pass 1c: linearize, preprocess, and search partitions.
    let mut candidates: Vec<Pass1Candidate> = Vec::new();
    for (key, l, cfg) in structural {
        let f = prog.func(key.func);
        let lb = match linearize(f, &cfg, &l) {
            Ok(lb) => lb,
            Err(e) => {
                push_reject(&mut rejected, sink, key, RejectReason::Structure(e));
                continue;
            }
        };
        let deps = dep_profile.loops.get(&key).cloned().unwrap_or_default();
        let stats = &profile.loops[&key];

        // Cost-driven preprocessing: evaluate the loop both as-is and (for
        // small bodies) unrolled, and keep whichever partitions better.
        // Unrolling changes the iteration granularity, so value-prediction
        // strides scale by the factor and hit rates compose.
        let mut variants: Vec<(LinearBody, usize)> = vec![(lb.clone(), 1)];
        if opts.enable_unroll && (lb.len() as f64) < opts.unroll_below {
            let k = opts.unroll_factor.max(2);
            variants.push((unroll_linear(&lb, k), k));
        }

        let mut best: Option<(Partition, LinearBody, usize)> = None;
        let mut reject: Option<RejectReason> = None;
        for (lb_used, unroll) in variants {
            let exec_prob =
                exec_probs(prog, key.func, &lb_used, &profile, stats.avg_trip(), unroll);
            let ddg = Ddg::build_with(&lb_used, prog, key.func, &deps, exec_prob, &call_costs);
            let values = if opts.enable_svp {
                scale_values(&deps.values, unroll)
            } else {
                HashMap::new()
            };
            match search_partition(&ddg, &lb_used, &values, &opts.cost) {
                Ok(part) => {
                    let better = best
                        .as_ref()
                        .is_none_or(|(b, _, _)| part.est_speedup > b.est_speedup);
                    if better {
                        best = Some((part, lb_used, unroll));
                    }
                }
                Err(PartitionError::TooManyViolationCandidates(n)) => {
                    reject = Some(RejectReason::TooManyViolationCandidates(n));
                }
            }
        }
        match best {
            Some((part, lb_used, unroll)) => {
                if sink.enabled() {
                    sink.emit(
                        0,
                        TraceEvent::PartitionChosen {
                            func: key.func,
                            loop_id: key.loop_id.0,
                            cost: part.misspec_cost,
                            est_speedup: part.est_speedup,
                            pre_size: part.pre.count(),
                        },
                    );
                }
                if part.est_speedup < opts.min_speedup {
                    push_reject(
                        &mut rejected,
                        sink,
                        key,
                        RejectReason::NotProfitable(part.est_speedup),
                    );
                    continue;
                }
                candidates.push(Pass1Candidate {
                    key,
                    l,
                    lb: lb_used,
                    part,
                    coverage: profile.coverage(key),
                    unroll,
                });
            }
            None => {
                push_reject(
                    &mut rejected,
                    sink,
                    key,
                    reject.unwrap_or(RejectReason::NotProfitable(0.0)),
                );
            }
        }
    }

    // Pass 2: global selection — non-nested, best benefit first.
    candidates.sort_by(|a, b| {
        let wa = a.coverage * (a.part.est_speedup - 1.0);
        let wb = b.coverage * (b.part.est_speedup - 1.0);
        wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut selected: Vec<Pass1Candidate> = Vec::new();
    for c in candidates {
        let overlaps = selected.iter().any(|s| {
            s.key.func == c.key.func
                && (s.l.blocks.iter().any(|b| c.l.contains(*b))
                    || c.l.blocks.iter().any(|b| s.l.contains(*b)))
        });
        if overlaps {
            push_reject(&mut rejected, sink, c.key, RejectReason::Nested);
        } else {
            selected.push(c);
        }
    }

    // Transform.
    let mut out = prog.clone();
    let mut loops = Vec::new();
    for c in &selected {
        if sink.enabled() {
            sink.emit(
                0,
                TraceEvent::LoopSelected {
                    func: c.key.func,
                    loop_id: c.key.loop_id.0,
                    est_speedup: c.part.est_speedup,
                    coverage: c.coverage,
                    unroll: c.unroll,
                },
            );
        }
        let tr = transform_loop(&mut out, c.key.func, &c.l, &c.lb, &c.part);
        let n_moved = c
            .part
            .chosen
            .iter()
            .filter(|x| x.mitigation == crate::partition::Mitigation::Move)
            .count();
        let n_cloned = c
            .part
            .chosen
            .iter()
            .filter(|x| x.mitigation == crate::partition::Mitigation::Clone)
            .count();
        let n_svp = c.part.chosen.len() - n_moved - n_cloned;
        loops.push(SptLoopInfo {
            key: c.key,
            func: c.key.func,
            body_block: tr.new_body,
            preheader: tr.preheader,
            exit_stub: tr.exit_stub,
            est_speedup: c.part.est_speedup,
            misspec_cost: c.part.misspec_cost,
            pre_size: c.part.pre.count(),
            body_size: c.lb.len(),
            coverage: c.coverage,
            unroll: c.unroll,
            n_moved,
            n_cloned,
            n_svp,
        });
    }
    debug_assert!(out.verify().is_ok());

    CompileResult {
        program: out,
        loops,
        rejected,
        profile,
    }
}

/// Rescale value patterns to a coarser iteration granularity: after
/// unrolling by `k`, the per-new-iteration stride is `k` times the original
/// and a prediction only hits when all `k` original steps hit.
fn scale_values(
    values: &HashMap<u32, spt_profile::ValuePattern>,
    k: usize,
) -> HashMap<u32, spt_profile::ValuePattern> {
    if k <= 1 {
        return values.clone();
    }
    values
        .iter()
        .map(|(&r, v)| {
            let rate = v.hit_rate().powi(k as i32);
            (
                r,
                spt_profile::ValuePattern {
                    samples: v.samples / k as u64,
                    best_stride: v.best_stride.wrapping_mul(k as i64),
                    hits: (rate * (v.samples / k as u64) as f64) as u64,
                },
            )
        })
        .collect()
}

/// Per-statement execution probabilities for a (possibly unrolled) linear
/// body: block reach probability × guard probability, scaled per unroll
/// copy by the continue probability.
fn exec_probs(
    prog: &Program,
    func: FuncId,
    lb: &LinearBody,
    profile: &ProgramProfile,
    avg_trip: f64,
    unroll: usize,
) -> Vec<f64> {
    // Reach probability per original block within the loop, from branch
    // profiles (blocks outside any profile default to 1).
    let f = prog.func(func);
    let mut reach: HashMap<BlockId, f64> = HashMap::new();
    // Cheap forward propagation in block-id order is unreliable; walk the
    // body statements and compute lazily from profiled branch data along
    // the linearization. For single-block bodies reach is 1 everywhere.
    // For if-converted bodies, approximate reach of a block as the product
    // of branch probabilities on a path — we use the profiled guard
    // probabilities when available and default to 1.
    let _ = (&mut reach, f);

    let p_cont = if avg_trip > 1.0 {
        (avg_trip - 1.0) / avg_trip
    } else {
        0.5
    };
    let per_copy = lb.stmts.len().div_ceil(unroll.max(1));
    lb.stmts
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let copy = if unroll > 1 { i / per_copy.max(1) } else { 0 };
            let base = match s.origin {
                Some(o) => profile.guard_prob(func, o),
                None => 1.0,
            };
            base * p_cont.powi(copy as i32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_interp::run;
    use spt_sir::{BinOp, ProgramBuilder};

    const FUEL: u64 = 5_000_000;

    /// A program with one hot parallel loop and one cold loop.
    fn two_loop_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let acc = f.reg();
        let hot = f.new_block();
        let mid = f.new_block();
        let cold = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(acc, 0);
        f.jmp(hot);
        // hot loop: 400 iterations, independent-ish work + induction.
        f.switch_to(hot);
        let cur = f.reg();
        f.mov(cur, i);
        f.addi(i, i, 1);
        let mut v = f.reg();
        f.mov(v, cur);
        for _ in 0..12 {
            let t = f.reg();
            f.bin(BinOp::Add, t, v, v);
            v = t;
        }
        f.store(v, cur, 0);
        let n400 = f.const_reg(400);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, n400);
        f.br(c, hot, mid);
        f.switch_to(mid);
        let j = f.reg();
        f.const_(j, 0);
        f.jmp(cold);
        // cold loop: 4 iterations only.
        f.switch_to(cold);
        f.bin(BinOp::Add, acc, acc, j);
        f.addi(j, j, 1);
        let n4 = f.const_reg(4);
        let c2 = f.reg();
        f.bin(BinOp::CmpLt, c2, j, n4);
        f.br(c2, cold, exit);
        f.switch_to(exit);
        f.ret(Some(acc));
        let id = f.finish();
        pb.finish(id, 512)
    }

    #[test]
    fn compiles_hot_loop_rejects_cold() {
        let prog = two_loop_program();
        let res = compile(&prog, &CompileOptions::default());
        assert_eq!(res.loops.len(), 1, "rejected: {:?}", res.rejected);
        let info = &res.loops[0];
        assert!(info.est_speedup > 1.2, "speedup {}", info.est_speedup);
        // The cold loop shows up among rejections (low coverage or trips).
        assert!(!res.rejected.is_empty());
        res.program.verify().unwrap();
    }

    #[test]
    fn compiled_program_preserves_semantics() {
        let prog = two_loop_program();
        let (seq, _) = run(&prog, FUEL);
        let res = compile(&prog, &CompileOptions::default());
        let (got, _) = run(&res.program, FUEL);
        assert_eq!(got.ret, seq.ret);
        assert!(!got.out_of_fuel);
    }

    #[test]
    fn fork_and_kill_present_in_output() {
        let prog = two_loop_program();
        let res = compile(&prog, &CompileOptions::default());
        let info = &res.loops[0];
        let body = res.program.func(info.func).block(info.body_block);
        assert!(body
            .insts
            .iter()
            .any(|i| matches!(i.op, spt_sir::Op::SptFork { .. })));
        let stub = res.program.func(info.func).block(info.exit_stub);
        assert!(stub
            .insts
            .iter()
            .any(|i| matches!(i.op, spt_sir::Op::SptKill)));
    }

    #[test]
    fn disabling_unroll_changes_nothing_for_large_bodies() {
        let prog = two_loop_program();
        let mut o1 = CompileOptions::default();
        o1.enable_unroll = false;
        let res = compile(&prog, &o1);
        assert_eq!(res.loops.len(), 1);
        // body is ~20 stmts > unroll_below=16 so default also skips unroll.
        let res2 = compile(&prog, &CompileOptions::default());
        assert_eq!(res.loops[0].unroll, res2.loops[0].unroll);
    }

    #[test]
    fn tiny_body_gets_unrolled() {
        // 3-stmt body: acc += i; i += 1 with high trip count.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let acc = f.reg();
        let nn = f.const_reg(500);
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
        let (seq, _) = run(&prog, FUEL);

        let res = compile(&prog, &CompileOptions::default());
        // Whether selected or not, semantics hold; if selected, unrolled.
        let (got, _) = run(&res.program, FUEL);
        assert_eq!(got.ret, seq.ret);
        if let Some(info) = res.loops.first() {
            assert!(info.unroll > 1, "tiny body should be unrolled");
        }
    }

    #[test]
    fn traced_compile_emits_selection_events() {
        let prog = two_loop_program();
        let mut sink = spt_trace::RingBufferSink::unbounded();
        let opts = CompileOptions::default();
        let profile = profile_program(&prog, opts.profile_fuel);
        let res = compile_with_profile_traced(&prog, &opts, profile, &mut sink);
        let recs: Vec<_> = sink.into_records();
        assert!(
            recs.iter().all(|r| r.cycle == 0),
            "compile events at cycle 0"
        );
        let selected = recs
            .iter()
            .filter(|r| matches!(r.ev, spt_trace::TraceEvent::LoopSelected { .. }))
            .count();
        let rejected = recs
            .iter()
            .filter(|r| matches!(r.ev, spt_trace::TraceEvent::LoopRejected { .. }))
            .count();
        let partitions = recs
            .iter()
            .filter(|r| matches!(r.ev, spt_trace::TraceEvent::PartitionChosen { .. }))
            .count();
        assert_eq!(selected, res.loops.len());
        assert_eq!(rejected, res.rejected.len());
        assert!(partitions >= selected);
        // Tracing must not change the compilation result.
        let res2 = compile(&prog, &CompileOptions::default());
        assert_eq!(res2.loops.len(), res.loops.len());
        assert_eq!(res2.rejected.len(), res.rejected.len());
    }

    #[test]
    fn rejects_when_speedup_threshold_high() {
        let prog = two_loop_program();
        let mut opts = CompileOptions::default();
        opts.min_speedup = 10.0; // impossible
        let res = compile(&prog, &opts);
        assert!(res.loops.is_empty());
        assert!(res
            .rejected
            .iter()
            .any(|(_, r)| matches!(r, RejectReason::NotProfitable(_))));
    }
}
