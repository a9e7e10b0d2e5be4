//! Direct layer probes: calls into one layer at a time, outside any
//! sweep, each timed as its own span.

use crate::trace::Tracer;
use spt::compiler::{compile_with_profile, CompileOptions};
use spt::interp::{run, DecodedProgram};
use spt::profile::{profile_loops, profile_program, LoopKey, ProgramProfile};
use spt::sir::{analyze_loops, Program};
use spt::sweep::program_fingerprint;
use spt::workloads::{benchmark, Scale, Workload, BENCHMARK_NAMES};
use std::hint::black_box;

/// The loops the compiler's pass 1a hands to the dependence profiler:
/// every profiled loop that survives the coverage, trip-count and
/// body-size filters, in the compiler's enumeration order (functions in
/// order, loops in forest order). This mirrors
/// `spt_compiler::compile_with_profile`, so timing `profile_loops` on
/// these keys isolates the dependence-profile share of a compile.
pub fn candidate_keys(
    prog: &Program,
    profile: &ProgramProfile,
    opts: &CompileOptions,
) -> Vec<LoopKey> {
    let mut keys = Vec::new();
    for fid in prog.func_ids() {
        let (_, _, forest) = analyze_loops(prog.func(fid));
        for l in &forest.loops {
            let key = LoopKey {
                func: fid,
                loop_id: l.id,
            };
            let Some(dynstats) = profile.loops.get(&key) else {
                continue;
            };
            let cov = profile.coverage(key);
            let body = dynstats.avg_body_size();
            let limit = if cov >= opts.big_coverage {
                opts.big_size_limit
            } else {
                opts.size_limit
            };
            if cov >= opts.min_coverage
                && dynstats.avg_trip() >= opts.min_trip
                && body <= limit
                && body >= opts.min_body
            {
                keys.push(key);
            }
        }
    }
    keys
}

/// Compile options for a fabric of `cores` (the cost model sees the
/// width, as in the `fig_scale` experiment).
pub fn options_for(base: &CompileOptions, cores: usize) -> CompileOptions {
    let mut o = base.clone();
    o.cost.cores = cores;
    o
}

/// Results of the per-program probes over one suite.
#[derive(Default, Debug)]
pub struct ProbeTimes {
    pub programs: u64,
    pub build_ms: f64,
    pub profile_program_ms: f64,
    pub deps_ms: f64,
    pub deps_computes: u64,
    /// `compile_with_profile` on the same programs and options, timed
    /// right after each dependence profile, so the two sums differ by
    /// the partition search and transform under the same conditions.
    pub compile_ms: f64,
    pub decode_ms: f64,
    pub ref_run_ms: f64,
    pub fingerprint_ms: f64,
}

/// Build the suite, then time each single-layer call over every program
/// of it: `profile_program`, `profile_loops` on each compile's pass-1a
/// candidates (one compile per core count), `DecodedProgram::new`, a
/// bare `interp::run`, and `program_fingerprint`. Each dependence
/// profile is paired with a full `compile_with_profile` of the same
/// program and options.
pub fn suite_probes(
    tr: &Tracer,
    scale: Scale,
    opts: &CompileOptions,
    cores: &[usize],
    fuel: u64,
) -> ProbeTimes {
    let mut p = ProbeTimes::default();
    let (suite, ms) = tr.span("probe.build", "workloads", || {
        BENCHMARK_NAMES
            .iter()
            .map(|n| benchmark(n, scale))
            .collect::<Vec<Workload>>()
    });
    p.build_ms = ms;
    for w in &suite {
        p.programs += 1;
        let (profile, ms) = tr.span("probe.profile_program", "profile", || {
            profile_program(&w.program, opts.profile_fuel)
        });
        p.profile_program_ms += ms;
        for &n in cores {
            let o = options_for(opts, n);
            let keys = candidate_keys(&w.program, &profile, &o);
            let (_, ms) = tr.span("probe.deps", "profile", || {
                black_box(profile_loops(&w.program, &keys, o.profile_fuel))
            });
            p.deps_ms += ms;
            p.deps_computes += 1;
            let (_, ms) = tr.span("probe.compile", "compiler", || {
                black_box(compile_with_profile(&w.program, &o, profile.clone()))
            });
            p.compile_ms += ms;
        }
        let (_, ms) = tr.span("probe.decode", "interp", || {
            black_box(DecodedProgram::new(&w.program))
        });
        p.decode_ms += ms;
        let (_, ms) = tr.span("probe.ref_run", "interp", || {
            black_box(run(&w.program, fuel))
        });
        p.ref_run_ms += ms;
        let (_, ms) = tr.span("probe.fingerprint", "spt", || {
            black_box(program_fingerprint(&w.program))
        });
        p.fingerprint_ms += ms;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt::compiler::RejectReason;
    use std::collections::BTreeSet;

    /// The reconstruction must name exactly the loops the compiler went on
    /// to dependence-profile: those it selected plus those it rejected
    /// after pass 1a (structure, partition search, profitability,
    /// nesting).
    #[test]
    fn candidate_keys_match_what_the_compiler_profiles() {
        for (bench, cores) in [("parsers", 2), ("gccs", 8)] {
            let w = benchmark(bench, Scale::Test);
            let opts = options_for(&CompileOptions::default(), cores);
            let profile = profile_program(&w.program, opts.profile_fuel);
            let keys = candidate_keys(&w.program, &profile, &opts);
            let res = compile_with_profile(&w.program, &opts, profile);
            let key_of = |k: &LoopKey| (k.func.0, k.loop_id.0);
            let mut profiled: BTreeSet<_> = res.loops.iter().map(|l| key_of(&l.key)).collect();
            for (k, why) in &res.rejected {
                let after_pass_1a = matches!(
                    why,
                    RejectReason::Structure(_)
                        | RejectReason::TooManyViolationCandidates(_)
                        | RejectReason::NotProfitable(_)
                        | RejectReason::Nested
                );
                if after_pass_1a {
                    profiled.insert(key_of(k));
                }
            }
            let reconstructed: BTreeSet<_> = keys.iter().map(key_of).collect();
            assert_eq!(reconstructed.len(), keys.len(), "{bench}: duplicate keys");
            assert!(!keys.is_empty(), "{bench}: no candidates");
            assert_eq!(reconstructed, profiled, "{bench}@{cores}");
        }
    }
}
