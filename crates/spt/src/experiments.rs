//! The paper's evaluation experiments (Figures 6–9, Table 1, the Figure 1
//! case study, and the implied ablations), producing structured data that
//! the `spt-bench` binaries render.
//!
//! Every experiment is a method on [`Sweep`]: it fans per-benchmark work
//! across the engine's worker pool, reuses phase results through the memo
//! cache, and returns the experiment data together with a [`RunReport`] of
//! per-phase timings and cache counters. Callers that want no report run
//! it on a fresh [`Sweep::auto`] engine and drop the second element.
//!
//! Parallel and sequential runs produce identical data: work items are
//! independent, results are collected in item order, and all timing
//! information is confined to the `RunReport`.

use crate::report::arithmetic_mean;
use crate::solution::{spt_annotations, EvalOutcome, RunConfig};
use crate::sweep::{BenchRecord, PhaseTimings, RunReport, Sweep};
use spt_compiler::CompileResult;
use spt_mach::{MachineConfig, RecoveryKind, RegCheckPolicy};
use spt_profile::ProgramProfile;
use spt_sim::LoopAnnotations;
use spt_workloads::{benchmark, kernels, suite, Scale, Workload};
use std::time::Instant;

/// Ablation A1 output: per benchmark, a series of (SRB size, speedup).
pub type SrbData = Vec<(String, Vec<(usize, f64)>)>;

/// Core-count sweep output: per benchmark, a series of (cores, speedup).
pub type ScaleData = Vec<(String, Vec<(usize, f64)>)>;

/// Labeled-ablation output: per benchmark, rows of (variant label, speedup).
pub type LabeledData = Vec<(String, Vec<(String, f64)>)>;

/// Figure 6: one benchmark's accumulative loop coverage vs body size.
#[derive(Clone, Debug)]
pub struct Fig6Series {
    pub name: String,
    /// (body-size limit, accumulative coverage in [0,1]).
    pub points: Vec<(f64, f64)>,
}

/// The x-axis buckets of Figure 6 (log scale 1..1e6).
pub const FIG6_LIMITS: [f64; 9] = [
    10.0,
    30.0,
    100.0,
    300.0,
    1_000.0,
    3_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
];

fn fig6_points(prof: &ProgramProfile) -> Vec<(f64, f64)> {
    let mut loops: Vec<(f64, f64)> = prof
        .loops
        .iter()
        .map(|(k, d)| (d.avg_body_size(), prof.coverage(*k)))
        .collect();
    loops.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    FIG6_LIMITS
        .iter()
        .map(|&lim| {
            let cov: f64 = loops
                .iter()
                .filter(|(sz, _)| *sz <= lim)
                .map(|(_, c)| c)
                .sum();
            (lim, cov.min(1.0))
        })
        .collect()
}

/// Reference (non-memoized) Figure 6 computation, kept for the tests that
/// cross-check the sweep path against it.
#[cfg(test)]
fn fig6_one(w: &Workload, fuel: u64) -> Fig6Series {
    let prof = spt_profile::profile_program(&w.program, fuel);
    Fig6Series {
        name: w.name.to_string(),
        points: fig6_points(&prof),
    }
}

/// Figure 7: SPT loop count and coverage vs the maximum loop coverage under
/// the same size limit.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    pub name: String,
    pub max_coverage: f64,
    pub spt_coverage: f64,
    pub n_spt_loops: usize,
}

fn fig7_row(name: &str, compiled: &CompileResult) -> Fig7Row {
    let limit = if name == "gaps" { 2500.0 } else { 1000.0 };
    let max_coverage: f64 = compiled
        .profile
        .loops
        .iter()
        .filter(|(_, d)| d.avg_body_size() <= limit)
        .map(|(k, _)| compiled.profile.coverage(*k))
        .sum::<f64>()
        .min(1.0);
    let spt_coverage: f64 = compiled
        .loops
        .iter()
        .map(|l| l.coverage)
        .sum::<f64>()
        .min(1.0);
    Fig7Row {
        name: name.to_string(),
        max_coverage,
        spt_coverage,
        n_spt_loops: compiled.loops.len(),
    }
}

/// Figure 8: per-benchmark SPT loop-level performance.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    pub name: String,
    /// Cycle-weighted average speedup of the benchmark's SPT loops.
    pub avg_loop_speedup: f64,
    pub fast_commit_ratio: f64,
    pub misspeculation_ratio: f64,
    /// `spt_fork`s that arrived while a speculative thread was running.
    pub forks_ignored: u64,
    /// Replays cut short by control divergence.
    pub divergence_kills: u64,
}

/// Figure 9: per-benchmark program speedup with its breakdown.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    pub name: String,
    pub speedup: f64,
    /// Fractions of baseline time recovered per category.
    pub exec_contrib: f64,
    pub pipe_contrib: f64,
    pub dcache_contrib: f64,
}

/// A suite evaluation: outcomes in suite order, plus the run's metrics.
#[derive(Debug)]
pub struct SuiteRun {
    pub outcomes: Vec<EvalOutcome>,
    pub report: RunReport,
}

fn split<A, B>(pairs: Vec<(A, B)>) -> (Vec<A>, Vec<B>) {
    let mut xs = Vec::with_capacity(pairs.len());
    let mut ys = Vec::with_capacity(pairs.len());
    for (a, b) in pairs {
        xs.push(a);
        ys.push(b);
    }
    (xs, ys)
}

impl Sweep {
    /// Evaluate the full suite across the worker pool. Semantics of every
    /// benchmark are asserted on the calling thread, after collection.
    pub fn eval_suite(&self, scale: Scale, cfg: &RunConfig) -> SuiteRun {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws = suite(scale);
        let results = self.map(&ws, |_, w| self.evaluate(w.name, &w.program, cfg));
        let (outcomes, records) = split(results);
        for o in &outcomes {
            assert!(
                o.semantics_ok(),
                "{}: SPT run diverged from sequential semantics",
                o.name
            );
        }
        SuiteRun {
            outcomes,
            report: self.report_since("eval_suite", t0, before, records),
        }
    }

    /// Figure 6 across the worker pool (profile phase only).
    pub fn fig6(&self, scale: Scale, fuel: u64) -> (Vec<Fig6Series>, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws = suite(scale);
        let results = self.map(&ws, |_, w| {
            let (prof, stamp) = self.profile(&w.program, fuel);
            let series = Fig6Series {
                name: w.name.to_string(),
                points: fig6_points(&prof),
            };
            let record = BenchRecord {
                name: w.name.to_string(),
                timings: PhaseTimings {
                    profile_ms: stamp.ms,
                    ..Default::default()
                },
                profile_hit: stamp.hit,
                ..Default::default()
            };
            (series, record)
        });
        let (series, records) = split(results);
        (series, self.report_since("fig6", t0, before, records))
    }

    /// Figure 7 across the worker pool (profile + compile phases).
    pub fn fig7(&self, scale: Scale, cfg: &RunConfig) -> (Vec<Fig7Row>, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws = suite(scale);
        let results = self.map(&ws, |_, w| {
            let (compiled, cstamp, pstamp) = self.compile(&w.program, &cfg.compile);
            let row = fig7_row(w.name, &compiled);
            let record = BenchRecord {
                name: w.name.to_string(),
                timings: PhaseTimings {
                    profile_ms: pstamp.ms,
                    compile_ms: cstamp.ms,
                    ..Default::default()
                },
                profile_hit: pstamp.hit,
                compile_hit: cstamp.hit,
                ..Default::default()
            };
            (row, record)
        });
        let (rows, records) = split(results);
        (rows, self.report_since("fig7", t0, before, records))
    }

    /// The Figure 1 case study through the engine.
    pub fn fig1_case_study(&self, nodes: usize, cfg: &RunConfig) -> (CaseStudy, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let prog = kernels::parser_free_loop(nodes);
        let (out, record) = self.evaluate("parser_free_loop", &prog, cfg);
        (
            case_study_of(out),
            self.report_since("fig1", t0, before, vec![record]),
        )
    }

    /// Ablation A1 across the worker pool: one item per
    /// (benchmark, SRB size) pair; the compile and baseline simulation are
    /// shared per benchmark through the memo cache.
    pub fn ablation_srb(
        &self,
        bench_names: &[&str],
        sizes: &[usize],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (SrbData, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws: Vec<Workload> = bench_names.iter().map(|n| benchmark(n, scale)).collect();
        let items: Vec<(usize, usize)> = (0..ws.len())
            .flat_map(|b| sizes.iter().map(move |&s| (b, s)))
            .collect();
        let results = self.map(&items, |_, &(b, s)| {
            let w = &ws[b];
            let (compiled, cstamp, pstamp) = self.compile(&w.program, &cfg.compile);
            let annots = spt_annotations(&compiled);
            let (base, bstamp) = self.baseline(
                &w.program,
                &cfg.machine,
                &LoopAnnotations::empty(),
                cfg.fuel,
            );
            let mut m = cfg.machine.clone();
            m.srb_entries = s;
            let (rep, sstamp) = self.spt_sim(&compiled.program, &m, &annots, cfg.fuel);
            let speedup = base.cycles as f64 / rep.cycles as f64;
            let record = BenchRecord {
                name: format!("{}@srb{}", w.name, s),
                timings: PhaseTimings {
                    profile_ms: pstamp.ms,
                    compile_ms: cstamp.ms,
                    baseline_ms: bstamp.ms,
                    spt_ms: sstamp.ms,
                },
                profile_hit: pstamp.hit,
                compile_hit: cstamp.hit,
                baseline_hit: bstamp.hit,
                spt_hit: sstamp.hit,
                baseline_cycles: Some(base.cycles),
                spt_cycles: Some(rep.cycles),
                speedup: Some(speedup),
                semantics_ok: None,
                superstep_hits: base.superstep_hits + rep.superstep_hits,
                superstep_misses: base.superstep_misses + rep.superstep_misses,
            };
            (speedup, record)
        });
        let (speedups, records) = split(results);
        let data = bench_names
            .iter()
            .enumerate()
            .map(|(b, name)| {
                let series = sizes
                    .iter()
                    .enumerate()
                    .map(|(j, &s)| (s, speedups[b * sizes.len() + j]))
                    .collect();
                (name.to_string(), series)
            })
            .collect();
        (data, self.report_since("ablation_srb", t0, before, records))
    }

    /// Core-count scaling sweep (the `fig_scale` experiment): one item per
    /// (benchmark, core count) pair. The compiler's cost model is told the
    /// fabric width (its partition search targets the deeper iteration
    /// pipeline) and the SPT machine gets the matching number of cores; the
    /// baseline machine stays at the reference configuration so its
    /// simulation is shared per benchmark through the memo cache.
    pub fn fig_scale(
        &self,
        bench_names: &[&str],
        core_counts: &[usize],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (ScaleData, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let ws: Vec<Workload> = bench_names.iter().map(|n| benchmark(n, scale)).collect();
        let items: Vec<(usize, usize)> = (0..ws.len())
            .flat_map(|b| core_counts.iter().map(move |&n| (b, n)))
            .collect();
        let results = self.map(&items, |_, &(b, n)| {
            let w = &ws[b];
            let mut copts = cfg.compile.clone();
            copts.cost.cores = n;
            let (compiled, cstamp, pstamp) = self.compile(&w.program, &copts);
            let annots = spt_annotations(&compiled);
            let (base, bstamp) = self.baseline(
                &w.program,
                &cfg.machine,
                &LoopAnnotations::empty(),
                cfg.fuel,
            );
            let mut m = cfg.machine.clone();
            m.cores = n;
            let (rep, sstamp) = self.spt_sim(&compiled.program, &m, &annots, cfg.fuel);
            let speedup = base.cycles as f64 / rep.cycles as f64;
            let record = BenchRecord {
                name: format!("{}@cores{}", w.name, n),
                timings: PhaseTimings {
                    profile_ms: pstamp.ms,
                    compile_ms: cstamp.ms,
                    baseline_ms: bstamp.ms,
                    spt_ms: sstamp.ms,
                },
                profile_hit: pstamp.hit,
                compile_hit: cstamp.hit,
                baseline_hit: bstamp.hit,
                spt_hit: sstamp.hit,
                baseline_cycles: Some(base.cycles),
                spt_cycles: Some(rep.cycles),
                speedup: Some(speedup),
                semantics_ok: None,
                superstep_hits: base.superstep_hits + rep.superstep_hits,
                superstep_misses: base.superstep_misses + rep.superstep_misses,
            };
            (speedup, record)
        });
        let (speedups, records) = split(results);
        let data = bench_names
            .iter()
            .enumerate()
            .map(|(b, name)| {
                let series = core_counts
                    .iter()
                    .enumerate()
                    .map(|(j, &n)| (n, speedups[b * core_counts.len() + j]))
                    .collect();
                (name.to_string(), series)
            })
            .collect();
        (data, self.report_since("fig_scale", t0, before, records))
    }

    /// Ablations A2/A3 across the worker pool: one item per
    /// (benchmark, machine variant) pair.
    pub fn ablation_policies(
        &self,
        bench_names: &[&str],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (LabeledData, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let variants = policy_variants(&cfg.machine);
        let ws: Vec<Workload> = bench_names.iter().map(|n| benchmark(n, scale)).collect();
        let items: Vec<(usize, usize)> = (0..ws.len())
            .flat_map(|b| (0..variants.len()).map(move |v| (b, v)))
            .collect();
        let results = self.map(&items, |_, &(b, v)| {
            let w = &ws[b];
            let (label, m) = &variants[v];
            let (compiled, cstamp, pstamp) = self.compile(&w.program, &cfg.compile);
            let annots = spt_annotations(&compiled);
            let (base, bstamp) = self.baseline(
                &w.program,
                &cfg.machine,
                &LoopAnnotations::empty(),
                cfg.fuel,
            );
            let (rep, sstamp) = self.spt_sim(&compiled.program, m, &annots, cfg.fuel);
            let speedup = base.cycles as f64 / rep.cycles as f64;
            let record = BenchRecord {
                name: format!("{}@{}", w.name, label),
                timings: PhaseTimings {
                    profile_ms: pstamp.ms,
                    compile_ms: cstamp.ms,
                    baseline_ms: bstamp.ms,
                    spt_ms: sstamp.ms,
                },
                profile_hit: pstamp.hit,
                compile_hit: cstamp.hit,
                baseline_hit: bstamp.hit,
                spt_hit: sstamp.hit,
                baseline_cycles: Some(base.cycles),
                spt_cycles: Some(rep.cycles),
                speedup: Some(speedup),
                semantics_ok: None,
                superstep_hits: base.superstep_hits + rep.superstep_hits,
                superstep_misses: base.superstep_misses + rep.superstep_misses,
            };
            ((label.clone(), speedup), record)
        });
        let (pairs, records) = split(results);
        let data = bench_names
            .iter()
            .enumerate()
            .map(|(b, name)| {
                let rows = (0..variants.len())
                    .map(|v| pairs[b * variants.len() + v].clone())
                    .collect();
                (name.to_string(), rows)
            })
            .collect();
        (
            data,
            self.report_since("ablation_policies", t0, before, records),
        )
    }

    /// Ablation A4 across the worker pool: one item per
    /// (benchmark, compiler variant) pair, each a full evaluation.
    pub fn ablation_compiler(
        &self,
        bench_names: &[&str],
        scale: Scale,
        cfg: &RunConfig,
    ) -> (LabeledData, RunReport) {
        let t0 = Instant::now();
        let before = self.memo_stats();
        let variants = compiler_variants(cfg);
        let ws: Vec<Workload> = bench_names.iter().map(|n| benchmark(n, scale)).collect();
        let items: Vec<(usize, usize)> = (0..ws.len())
            .flat_map(|b| (0..variants.len()).map(move |v| (b, v)))
            .collect();
        let results = self.map(&items, |_, &(b, v)| {
            let w = &ws[b];
            let (label, rc) = &variants[v];
            let (out, mut record) = self.evaluate(w.name, &w.program, rc);
            record.name = format!("{}@{}", w.name, label);
            ((label.clone(), out.speedup()), record)
        });
        let (pairs, records) = split(results);
        let data = bench_names
            .iter()
            .enumerate()
            .map(|(b, name)| {
                let rows = (0..variants.len())
                    .map(|v| pairs[b * variants.len() + v].clone())
                    .collect();
                (name.to_string(), rows)
            })
            .collect();
        (
            data,
            self.report_since("ablation_compiler", t0, before, records),
        )
    }
}

pub fn fig8_rows(outcomes: &[EvalOutcome]) -> Vec<Fig8Row> {
    outcomes
        .iter()
        .map(|o| {
            let speedups = o.loop_speedups();
            let weights: Vec<f64> = o.baseline_loop_cycles.iter().map(|&c| c as f64).collect();
            let wsum: f64 = weights.iter().sum();
            let avg = if wsum > 0.0 {
                speedups
                    .iter()
                    .zip(&weights)
                    .map(|(s, w)| s * w)
                    .sum::<f64>()
                    / wsum
            } else {
                1.0
            };
            Fig8Row {
                name: o.name.clone(),
                avg_loop_speedup: avg,
                fast_commit_ratio: o.spt.fast_commit_ratio(),
                misspeculation_ratio: o.spt.misspeculation_ratio(),
                forks_ignored: o.spt.forks_ignored,
                divergence_kills: o.spt.divergence_kills,
            }
        })
        .collect()
}

pub fn fig9_rows(outcomes: &[EvalOutcome]) -> Vec<Fig9Row> {
    outcomes
        .iter()
        .map(|o| {
            let (e, p, d) = o.breakdown_contributions();
            Fig9Row {
                name: o.name.clone(),
                speedup: o.speedup(),
                exec_contrib: e,
                pipe_contrib: p,
                dcache_contrib: d,
            }
        })
        .collect()
}

/// The Figure 1 case study: the parser list-free loop.
#[derive(Clone, Debug)]
pub struct CaseStudy {
    pub loop_speedup: f64,
    /// Fraction of speculatively executed instructions that were invalid
    /// (misspeculated or discarded).
    pub invalid_ratio: f64,
    /// Fraction of speculative threads that ran perfectly parallel
    /// (fast-committed without any violation).
    pub perfect_ratio: f64,
    pub outcome: EvalOutcome,
}

fn case_study_of(out: EvalOutcome) -> CaseStudy {
    let speedups = out.loop_speedups();
    let loop_speedup = speedups.first().copied().unwrap_or(out.speedup());
    let spec_total = out.spt.spec_instrs_checked + out.spt.spec_instrs_discarded;
    let invalid_ratio = if spec_total == 0 {
        0.0
    } else {
        (out.spt.spec_misspec + out.spt.spec_instrs_discarded) as f64 / spec_total as f64
    };
    CaseStudy {
        loop_speedup,
        invalid_ratio,
        perfect_ratio: out.spt.fast_commit_ratio(),
        outcome: out,
    }
}

/// The machine variants of ablations A2/A3 (recovery × register checking).
fn policy_variants(machine: &MachineConfig) -> Vec<(String, MachineConfig)> {
    vec![
        ("SRX+FC value".into(), machine.clone()),
        (
            "SRX+FC mark".into(),
            MachineConfig {
                reg_check: RegCheckPolicy::MarkBased,
                ..machine.clone()
            },
        ),
        (
            "SRX only".into(),
            MachineConfig {
                recovery: RecoveryKind::SrxOnly,
                ..machine.clone()
            },
        ),
        (
            "Squash".into(),
            MachineConfig {
                recovery: RecoveryKind::Squash,
                ..machine.clone()
            },
        ),
    ]
}

/// The compiler-feature variants of ablation A4.
fn compiler_variants(cfg: &RunConfig) -> Vec<(String, RunConfig)> {
    let mut no_svp = cfg.clone();
    no_svp.compile.enable_svp = false;
    let mut no_unroll = cfg.clone();
    no_unroll.compile.enable_unroll = false;
    let mut naive = cfg.clone();
    // "Naive partition": fork at the very top — emulated by forbidding any
    // motion (size bound 0).
    naive.compile.cost.size_bound_frac = 0.0;
    vec![
        ("full".into(), cfg.clone()),
        ("no-svp".into(), no_svp),
        ("no-unroll".into(), no_unroll),
        ("no-motion".into(), naive),
    ]
}

/// Average program speedup across outcomes (the paper's headline 15.6%).
pub fn average_speedup(outcomes: &[EvalOutcome]) -> f64 {
    arithmetic_mean(&outcomes.iter().map(|o| o.speedup()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RunConfig {
        let mut c = RunConfig::default();
        c.fuel = 30_000_000;
        c
    }

    #[test]
    fn fig6_series_monotone_and_bounded() {
        let w = benchmark("gzips", Scale::Test);
        let s = fig6_one(&w, 30_000_000);
        let mut prev = 0.0;
        for (_, c) in &s.points {
            assert!(*c >= prev - 1e-12, "coverage must be non-decreasing");
            assert!(*c <= 1.0 + 1e-12);
            prev = *c;
        }
        // The final bucket captures the dominant loops.
        assert!(s.points.last().unwrap().1 > 0.3);
    }

    #[test]
    fn fig6_sweep_matches_direct() {
        let sw = Sweep::new(2);
        let (series, report) = sw.fig6(Scale::Test, 10_000_000);
        assert_eq!(series.len(), 10);
        assert_eq!(report.records.len(), 10);
        let direct = fig6_one(&benchmark("gzips", Scale::Test), 10_000_000);
        let via_sweep = series.iter().find(|s| s.name == "gzips").unwrap();
        assert_eq!(via_sweep.points, direct.points);
        // All ten benchmarks profiled exactly once.
        assert_eq!(report.cache.profile_misses, 10);
    }

    #[test]
    fn fig1_case_study_shape() {
        let cs = Sweep::auto().fig1_case_study(400, &quick_cfg()).0;
        assert!(cs.outcome.semantics_ok());
        assert!(cs.loop_speedup > 1.1, "speedup {}", cs.loop_speedup);
        assert!(cs.invalid_ratio < 0.5);
        assert!(cs.perfect_ratio > 0.05);
    }

    #[test]
    fn fig7_reports_selection() {
        let rows = Sweep::auto().fig7(Scale::Test, &quick_cfg()).0;
        assert_eq!(rows.len(), 10);
        let parsers = rows.iter().find(|r| r.name == "parsers").unwrap();
        assert!(parsers.n_spt_loops >= 1);
        assert!(parsers.spt_coverage <= parsers.max_coverage + 1e-9);
        let vortexs = rows.iter().find(|r| r.name == "vortexs").unwrap();
        assert!(vortexs.max_coverage < 0.5);
    }

    #[test]
    fn fig_scale_shares_baseline_and_does_not_degrade() {
        let sw = Sweep::new(2);
        let mut cfg = quick_cfg();
        cfg.fuel = 10_000_000;
        let (data, report) = sw.fig_scale(&["parsers"], &[2, 4], Scale::Test, &cfg);
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].1, {
            let again = sw.fig_scale(&["parsers"], &[2, 4], Scale::Test, &cfg).0;
            again[0].1.clone()
        });
        // One baseline simulation, shared across the two core counts.
        assert_eq!(report.cache.baseline_misses, 1);
        assert_eq!(report.cache.baseline_hits, 1);
        // Two distinct compiles (the cost model sees the core count) and
        // two distinct SPT simulations (the machine differs).
        assert_eq!(report.cache.compile_misses, 2);
        assert_eq!(report.cache.spt_misses, 2);
        // Wider fabric must not degrade the loop-dominated parser bench.
        let (_, s2) = data[0].1[0];
        let (_, s4) = data[0].1[1];
        assert!(s4 + 1e-9 >= s2, "cores=4 speedup {s4} < cores=2 {s2}");
    }

    #[test]
    fn ablation_srb_shares_compile_and_baseline() {
        let sw = Sweep::new(2);
        let mut cfg = quick_cfg();
        cfg.fuel = 10_000_000;
        let sizes = [16usize, 1024];
        let (data, report) = sw.ablation_srb(&["parsers", "mcfs"], &sizes, Scale::Test, &cfg);
        assert_eq!(data.len(), 2);
        assert_eq!(data[0].1.len(), 2);
        // 2 benches × 2 sizes = 4 items, but only 2 compiles, 2 baselines;
        // every SPT sim is distinct (machine differs per size).
        assert_eq!(report.cache.compile_misses, 2);
        assert_eq!(report.cache.compile_hits, 2);
        assert_eq!(report.cache.baseline_misses, 2);
        assert_eq!(report.cache.baseline_hits, 2);
        assert_eq!(report.cache.spt_misses, 4);
    }
}
