//! The two batch workloads: the full `fig_scale` sweep and the
//! simulator-only policy × SRB sweep.

use crate::probes::options_for;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::Checks;
use spt::compiler::CompileResult;
use spt::mach::{MachineConfig, RecoveryKind, RegCheckPolicy};
use spt::service::FIG_SCALE_CORES;
use spt::sim::{BaselineReport, LoopAnnotations, SptReport};
use spt::workloads::{suite, Scale, Workload};
use spt::{spt_annotations, MemoStats, PhaseObserver, PhaseStamp, RunConfig, Sweep};
use std::sync::Arc;
use std::time::Instant;

/// `total_sim_cycles` of one cold full-scale `fig_scale` sweep: the
/// repository's pinned simulated total. Bench order does not change it.
pub const FIG_SCALE_FULL_CYCLES: u64 = 20_389_813;

/// The suite at one scale plus each program's answer from a bare
/// interpreter run, the independent reference every simulated `ret` must
/// match.
pub struct SuiteRefs {
    pub scale: Scale,
    pub workloads: Vec<Workload>,
    pub rets: Vec<Option<i64>>,
}

pub fn build_suite(scale: Scale, fuel: u64) -> SuiteRefs {
    let workloads = suite(scale);
    let rets = workloads
        .iter()
        .map(|w| spt::interp::run(&w.program, fuel).0.ret)
        .collect();
    SuiteRefs {
        scale,
        workloads,
        rets,
    }
}

/// Simulated work summed over the runs that actually simulated (memo
/// hits replay a result and simulate nothing). Every field is a pure
/// function of the simulated inputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimTotals {
    pub baseline_runs: u64,
    pub baseline_instrs: u64,
    pub spt_runs: u64,
    pub spt_instrs: u64,
    pub cycles: u64,
    pub forks: u64,
    pub fast_commits: u64,
    pub spec_checked: u64,
    pub spec_misspec: u64,
    pub spec_discarded: u64,
    pub superstep_hits: u64,
    pub superstep_misses: u64,
    pub cache_accesses: u64,
    pub bp_lookups: u64,
}

impl SimTotals {
    pub fn add_baseline(&mut self, r: &BaselineReport) {
        self.baseline_runs += 1;
        self.baseline_instrs += r.instrs;
        self.cycles += r.cycles;
        self.superstep_hits += r.superstep_hits;
        self.superstep_misses += r.superstep_misses;
        self.cache_accesses += r.cache.accesses();
        self.bp_lookups += r.bp_lookups;
    }

    pub fn add_spt(&mut self, r: &SptReport) {
        self.spt_runs += 1;
        self.spt_instrs += r.instrs;
        self.cycles += r.cycles;
        self.forks += r.forks;
        self.fast_commits += r.fast_commits;
        self.spec_checked += r.spec_instrs_checked;
        self.spec_misspec += r.spec_misspec;
        self.spec_discarded += r.spec_instrs_discarded;
        self.superstep_hits += r.superstep_hits;
        self.superstep_misses += r.superstep_misses;
        self.cache_accesses += r.cache.accesses();
        self.bp_lookups += r.bp_lookups;
    }

    pub fn instrs(&self) -> u64 {
        self.baseline_instrs + self.spt_instrs
    }
}

/// Selected and rejected loop counts over a set of compiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopCounts {
    pub selected: u64,
    pub rejected: u64,
}

impl LoopCounts {
    fn add(&mut self, c: &CompileResult) {
        self.selected += c.loops.len() as u64;
        self.rejected += c.rejected.len() as u64;
    }
}

/// One timed unit of a batch workload.
pub struct Unit {
    pub secs: f64,
    /// Host ms of each work item (one per simulated item).
    pub item_ms: Vec<f64>,
    pub sim: SimTotals,
    /// Summed SPT-simulation compute ms per policy, in [`POLICIES`] order.
    pub policy_ms: [f64; 4],
    pub memo: MemoStats,
    pub loops: LoopCounts,
}

/// An observer that drops everything: swapped in after a traced unit so
/// the correctness queries that follow leave no spans.
struct Quiet;

impl PhaseObserver for Quiet {
    fn phase_done(&self, _: &'static str, _: PhaseStamp) {}
}

fn traced_sweep(tracer: Option<&Arc<Tracer>>) -> Sweep {
    let mut sweep = Sweep::new(1);
    if let Some(t) = tracer {
        sweep.set_observer(t.clone());
    }
    sweep
}

/// The seeded bench order of the `fig_scale` sweep.
pub fn bench_order(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::fork(seed, "bench-order").shuffle(&mut order);
    order
}

/// One cold `fig_scale` sweep (every bench × cores {2,4,8}) on a fresh
/// single-worker engine, then the correctness gate: every item's SPT
/// `ret` equals its baseline's and the reference run's, and at full
/// scale the simulated total is the pinned one.
pub fn fig_scale_unit(
    suite: &SuiteRefs,
    order: &[usize],
    cfg: &RunConfig,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> (Unit, Sweep) {
    let mut sweep = traced_sweep(tracer);
    let names: Vec<&str> = order.iter().map(|&b| suite.workloads[b].name).collect();
    let span = tracer.map(|t| t.begin("fig_scale", "spt"));
    let t0 = Instant::now();
    let (_, report) = sweep.fig_scale(&names, &FIG_SCALE_CORES, suite.scale, cfg);
    let secs = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, span) {
        t.end(id);
    }
    sweep.set_observer(Arc::new(Quiet));
    let before_queries = sweep.memo_stats();

    let mut unit = Unit {
        secs,
        item_ms: report
            .records
            .iter()
            .map(|r| r.timings.total_ms())
            .collect(),
        sim: SimTotals::default(),
        policy_ms: [0.0; 4],
        memo: report.cache,
        loops: LoopCounts::default(),
    };
    // Re-query every phase: all memo hits, so this reads back exactly the
    // reports the sweep produced.
    let mut records = report.records.iter();
    for &b in order {
        let w = &suite.workloads[b];
        for &n in &FIG_SCALE_CORES {
            let rec = records.next().expect("one record per (bench, cores) item");
            let (compiled, _, _) = sweep.compile(&w.program, &options_for(&cfg.compile, n));
            let (base, _) = sweep.baseline(
                &w.program,
                &cfg.machine,
                &LoopAnnotations::empty(),
                cfg.fuel,
            );
            let mut m = cfg.machine.clone();
            m.cores = n;
            let annots = spt_annotations(&compiled);
            let (rep, _) = sweep.spt_sim(&compiled.program, &m, &annots, cfg.fuel);
            unit.loops.add(&compiled);
            if !rec.baseline_hit {
                unit.sim.add_baseline(&base);
            }
            if !rec.spt_hit {
                unit.sim.add_spt(&rep);
            }
            let ok = rec.name == format!("{}@cores{n}", w.name)
                && rec.spt_cycles == Some(rep.cycles)
                && rets_agree(&base, &rep, suite.rets[b]);
            checks.check(ok, || {
                format!(
                    "{}: ret spt {:?} / baseline {:?} / reference {:?}",
                    rec.name, rep.ret, base.ret, suite.rets[b]
                )
            });
        }
    }
    let recomputed = sweep.memo_stats().since(&before_queries).misses();
    checks.check(recomputed == 0, || {
        format!("{recomputed} correctness queries missed the sweep's memo")
    });
    let total = report.total_sim_cycles();
    checks.check(total == unit.sim.cycles, || {
        format!(
            "report total_sim_cycles {total} != summed {}",
            unit.sim.cycles
        )
    });
    if suite.scale == Scale::Full {
        checks.check(total == FIG_SCALE_FULL_CYCLES, || {
            format!("fig_scale total_sim_cycles {total} != {FIG_SCALE_FULL_CYCLES}")
        });
    }
    (unit, sweep)
}

fn rets_agree(base: &BaselineReport, rep: &SptReport, reference: Option<i64>) -> bool {
    !base.out_of_fuel
        && !rep.out_of_fuel
        && reference.is_some()
        && base.ret == reference
        && rep.ret == reference
}

/// The ablation A2/A3 machine variants, in metric-name order.
pub const POLICIES: [&str; 4] = ["srxfc_value", "srxfc_mark", "srx_only", "squash"];

/// The ablation A1 SRB sizes the seed draws from.
pub const SRB_SIZES: [usize; 5] = [16, 64, 256, 1024, 4096];

pub fn policy_machine(base: &MachineConfig, policy: usize) -> MachineConfig {
    let mut m = base.clone();
    match policy {
        0 => {}
        1 => m.reg_check = RegCheckPolicy::MarkBased,
        2 => m.recovery = RecoveryKind::SrxOnly,
        3 => m.recovery = RecoveryKind::Squash,
        _ => unreachable!("policy index out of range"),
    }
    m
}

/// One `sim_sweep` work item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Baseline {
        bench: usize,
    },
    Spt {
        bench: usize,
        cores: usize,
        policy: usize,
        srb: usize,
    },
}

/// The seeded `sim_sweep` item list: one baseline per bench plus one SPT
/// run per (bench, cores, policy) with a drawn SRB size, shuffled.
pub fn sim_sweep_ops(seed: u64, benches: usize) -> Vec<Op> {
    let mut srb = Rng::fork(seed, "srb");
    let mut ops: Vec<Op> = (0..benches).map(|bench| Op::Baseline { bench }).collect();
    for bench in 0..benches {
        for &cores in &FIG_SCALE_CORES {
            for policy in 0..POLICIES.len() {
                ops.push(Op::Spt {
                    bench,
                    cores,
                    policy,
                    srb: srb.pick(&SRB_SIZES),
                });
            }
        }
    }
    Rng::fork(seed, "item-order").shuffle(&mut ops);
    ops
}

/// `sim_sweep` set-up: every bench compiled for every core count through
/// one engine (profiles shared across widths), with its SPT annotations.
pub struct Compiled {
    pub by_bench: Vec<Vec<(Arc<CompileResult>, LoopAnnotations)>>,
    pub loops: LoopCounts,
}

pub fn compile_suite(suite: &SuiteRefs, cfg: &RunConfig, tracer: Option<&Arc<Tracer>>) -> Compiled {
    let sweep = traced_sweep(tracer);
    let mut loops = LoopCounts::default();
    let by_bench = suite
        .workloads
        .iter()
        .map(|w| {
            FIG_SCALE_CORES
                .iter()
                .map(|&n| {
                    let (c, _, _) = sweep.compile(&w.program, &options_for(&cfg.compile, n));
                    loops.add(&c);
                    let annots = spt_annotations(&c);
                    (c, annots)
                })
                .collect()
        })
        .collect();
    Compiled { by_bench, loops }
}

/// One pass over the `sim_sweep` items on a fresh engine (so every item
/// simulates), then the correctness gate on every `ret`.
pub fn sim_sweep_pass(
    suite: &SuiteRefs,
    compiled: &Compiled,
    ops: &[Op],
    cfg: &RunConfig,
    tracer: Option<&Arc<Tracer>>,
    checks: &mut Checks,
) -> Unit {
    let sweep = traced_sweep(tracer);
    let empty = LoopAnnotations::empty();
    let mut unit = Unit {
        secs: 0.0,
        item_ms: Vec::with_capacity(ops.len()),
        sim: SimTotals::default(),
        policy_ms: [0.0; 4],
        memo: MemoStats::default(),
        loops: compiled.loops,
    };
    let mut base_rets = vec![None; suite.workloads.len()];
    let mut spt_rets = Vec::new();
    let span = tracer.map(|t| t.begin("sim_sweep", "spt"));
    let t0 = Instant::now();
    for op in ops {
        if let Some(t) = tracer {
            t.next_item();
        }
        let t_item = Instant::now();
        match *op {
            Op::Baseline { bench } => {
                let w = &suite.workloads[bench];
                let (r, _) = sweep.baseline(&w.program, &cfg.machine, &empty, cfg.fuel);
                unit.sim.add_baseline(&r);
                base_rets[bench] = Some((r.ret, r.out_of_fuel));
            }
            Op::Spt {
                bench,
                cores,
                policy,
                srb,
            } => {
                let wi = FIG_SCALE_CORES
                    .iter()
                    .position(|&c| c == cores)
                    .expect("swept width");
                let (c, annots) = &compiled.by_bench[bench][wi];
                let mut m = policy_machine(&cfg.machine, policy);
                m.cores = cores;
                m.srb_entries = srb;
                let (r, stamp) = sweep.spt_sim(&c.program, &m, annots, cfg.fuel);
                unit.sim.add_spt(&r);
                unit.policy_ms[policy] += stamp.ms;
                spt_rets.push((*op, bench, r.ret, r.out_of_fuel));
            }
        }
        unit.item_ms.push(t_item.elapsed().as_secs_f64() * 1e3);
    }
    unit.secs = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer, span) {
        t.end(id);
    }
    unit.memo = sweep.memo_stats();

    for (b, reference) in suite.rets.iter().enumerate() {
        let ok = reference.is_some() && base_rets[b] == Some((*reference, false));
        checks.check(ok, || {
            format!(
                "{} baseline {:?} != reference {reference:?}",
                suite.workloads[b].name, base_rets[b]
            )
        });
    }
    for (op, b, ret, out_of_fuel) in spt_rets {
        let ok = !out_of_fuel && suite.rets[b].is_some() && ret == suite.rets[b];
        checks.check(ok, || {
            format!("{op:?} ret {ret:?} != reference {:?}", suite.rets[b])
        });
    }
    unit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_orders_and_draws_are_deterministic() {
        assert_eq!(bench_order(5, 10), bench_order(5, 10));
        assert_ne!(bench_order(5, 10), bench_order(6, 10));
        let mut sorted = bench_order(5, 10);
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());

        let a = sim_sweep_ops(9, 10);
        assert_eq!(a, sim_sweep_ops(9, 10));
        assert_ne!(a, sim_sweep_ops(10, 10));
        assert_eq!(a.len(), 10 + 10 * 3 * 4);
        let baselines = a
            .iter()
            .filter(|o| matches!(o, Op::Baseline { .. }))
            .count();
        assert_eq!(baselines, 10);
        // Every SRB draw comes from the A1 set, and a seed uses several.
        let srbs: std::collections::BTreeSet<usize> = a
            .iter()
            .filter_map(|o| match o {
                Op::Spt { srb, .. } => Some(*srb),
                _ => None,
            })
            .collect();
        assert!(srbs.iter().all(|s| SRB_SIZES.contains(s)));
        assert!(srbs.len() >= 3);
    }
}
