//! The sweep engine's determinism contract: running the evaluation suite on
//! 1, 2, or 8 workers — or re-running on a warm memo cache — must produce
//! byte-identical serialized outcomes. Only the `RunReport` (wall-clock,
//! cache counters) may differ between runs; `EvalOutcome` never does.

use spt::workloads::Scale;
use spt::{Json, Sweep, ToJson};

fn run_config() -> spt::RunConfig {
    spt::RunConfig::default()
}

/// Serialize a suite's outcomes to the exact bytes a bench binary would
/// emit for them.
fn outcome_bytes(outcomes: &[spt::EvalOutcome]) -> String {
    Json::Array(outcomes.iter().map(|o| o.to_json()).collect()).dump()
}

#[test]
fn eval_suite_identical_across_worker_counts() {
    let cfg = run_config();
    let seq = Sweep::new(1).eval_suite(Scale::Test, &cfg);
    let two = Sweep::new(2).eval_suite(Scale::Test, &cfg);
    let eight = Sweep::new(8).eval_suite(Scale::Test, &cfg);

    let b1 = outcome_bytes(&seq.outcomes);
    let b2 = outcome_bytes(&two.outcomes);
    let b8 = outcome_bytes(&eight.outcomes);
    assert_eq!(b1, b2, "2-worker suite diverged from sequential");
    assert_eq!(b1, b8, "8-worker suite diverged from sequential");

    // The structured report must agree on everything schedule-independent.
    assert_eq!(seq.report.records.len(), eight.report.records.len());
    for (a, b) in seq.report.records.iter().zip(&eight.report.records) {
        assert_eq!(a.name, b.name, "record order must be input order");
        assert_eq!(a.baseline_cycles, b.baseline_cycles);
        assert_eq!(a.spt_cycles, b.spt_cycles);
        assert_eq!(a.semantics_ok, b.semantics_ok);
    }
}

#[test]
fn warm_cache_does_not_change_results() {
    let cfg = run_config();
    let sweep = Sweep::new(4);

    let cold = sweep.eval_suite(Scale::Test, &cfg);
    let warm = sweep.eval_suite(Scale::Test, &cfg);

    assert_eq!(
        outcome_bytes(&cold.outcomes),
        outcome_bytes(&warm.outcomes),
        "memo-cache hits changed the suite outcomes"
    );

    // The second pass must be served entirely from the memo cache (each
    // report's `cache` field counts only its own run).
    assert_eq!(warm.report.cache.misses(), 0, "warm run recomputed a phase");
    assert!(
        warm.report.cache.hits() > 0,
        "warm run did not hit the cache"
    );
    assert!(cold.report.cache.misses() > 0, "cold run should miss");
    for rec in &warm.report.records {
        assert!(
            rec.profile_hit && rec.compile_hit && rec.baseline_hit && rec.spt_hit,
            "{}: phase recomputed on warm cache",
            rec.name
        );
        assert_eq!(
            rec.timings.total_ms(),
            0.0,
            "{}: cached phase billed time",
            rec.name
        );
    }
}

#[test]
fn mixed_experiments_share_the_cache_coherently() {
    // fig8 and fig9 both consume the full suite evaluation; running them on
    // one engine must evaluate each benchmark once and agree exactly.
    let cfg = run_config();
    let sweep = Sweep::new(2);
    let first = sweep.eval_suite(Scale::Test, &cfg);
    let stats_after_first = sweep.memo_stats();
    let second = sweep.eval_suite(Scale::Test, &cfg);
    assert_eq!(
        outcome_bytes(&first.outcomes),
        outcome_bytes(&second.outcomes)
    );
    assert_eq!(
        sweep.memo_stats().misses(),
        stats_after_first.misses(),
        "second experiment recomputed shared phases"
    );
}

#[test]
fn fig_scale_test_sweep_pins_cycles_and_memo_split() {
    // The simulated work of the test-scale core-count sweep is a fixed
    // number: a change that moves it changed what the simulators compute.
    // Profiles and baselines are shared across core widths (one miss per
    // benchmark, a hit for each other width); compiles and SPT runs are
    // per width, and the compiles of one benchmark share one dependence
    // profile.
    let names: Vec<&str> = spt::workloads::suite(Scale::Test)
        .iter()
        .map(|w| w.name)
        .collect();
    let cores = spt::service::FIG_SCALE_CORES;
    let (_, report) = Sweep::new(1).fig_scale(&names, &cores, Scale::Test, &run_config());
    assert_eq!(report.records.len(), names.len() * cores.len());
    assert_eq!(report.total_sim_cycles(), 918_660);
    let c = report.cache;
    assert_eq!((c.profile_hits, c.profile_misses), (20, 10));
    assert_eq!((c.compile_hits, c.compile_misses), (0, 30));
    assert_eq!((c.dep_profile_hits, c.dep_profile_misses), (20, 10));
    assert_eq!((c.baseline_hits, c.baseline_misses), (20, 10));
    assert_eq!((c.spt_hits, c.spt_misses), (0, 30));
}
