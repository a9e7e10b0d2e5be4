//! Wall-clock performance harness for the simulators themselves.
//!
//! Unlike the figure binaries — which measure the *simulated* machine —
//! this one measures the *simulator*: how long the full `fig_scale`
//! core-count sweep (every suite benchmark × cores ∈ {2, 4, 8}) takes in
//! host wall-clock time, and how many simulated cycles per second the
//! hot path sustains. Its output is `BENCH_simperf.json`, a small
//! append/replace-by-label ledger so before/after entries of an
//! optimization can live side by side in the repository.
//!
//! Flags:
//!
//! * `--scale test|small|full` (default `full`) — sweep fidelity;
//! * `--workers N` (default 1) — single-threaded by default so entries
//!   measure the hot path, not the thread pool;
//! * `--label NAME` (default `current`) — ledger entry to write; an
//!   existing entry with the same label is replaced, others are kept;
//! * `--out PATH` (default `BENCH_simperf.json`) — the ledger file;
//! * `--smoke` — CI mode: force `test` scale, do not touch the ledger,
//!   just build an entry in memory and schema-validate it. Exits
//!   non-zero on schema violations only — there is **no** timing
//!   threshold, so CI stays deterministic on shared runners.
//! * `--metrics` — attach the full `SweepMetrics` telemetry observer to
//!   the sweep before running. Paired `--label metrics-off` /
//!   `--label metrics-on` ledger entries quantify the observer's
//!   overhead; the rendered exposition is validated before exit.

use spt::service::scale_name;
use spt::{Json, RunConfig, RunReport, Sweep};
use spt_bench::Flags;
use spt_serve::ServeMetrics;
use spt_workloads::{suite, Scale};
use std::process::exit;

const CORES: [usize; 3] = [2, 4, 8];
const DEFAULT_OUT: &str = "BENCH_simperf.json";

/// One ledger entry from a finished sweep. `arena` is the run's
/// simulator-arena summary (see `arena_summary`), or `Json::Null` for
/// entries recorded before the arena existed.
fn entry_json(label: &str, scale: Scale, report: &RunReport, arena: Json) -> Json {
    let sum = |f: fn(&spt::PhaseTimings) -> f64| -> f64 {
        report.records.iter().map(|r| f(&r.timings)).sum()
    };
    Json::obj()
        .with("label", label)
        .with("experiment", report.experiment.as_str())
        .with("scale", scale_name(scale))
        .with("workers", report.workers)
        .with("items", report.records.len())
        .with("wall_ms", report.wall_ms)
        .with("compute_ms", report.compute_ms())
        .with(
            "phase_ms",
            Json::obj()
                .with("profile_ms", sum(|t| t.profile_ms))
                .with("compile_ms", sum(|t| t.compile_ms))
                .with("baseline_sim_ms", sum(|t| t.baseline_ms))
                .with("spt_sim_ms", sum(|t| t.spt_ms)),
        )
        .with("total_sim_cycles", report.total_sim_cycles())
        .with("sim_cycles_per_sec", report.sim_cycles_per_sec())
        .with("superstep_hit_rate", report.superstep_hit_rate())
        .with(
            "cache",
            Json::obj()
                .with("hits", report.cache.hits())
                .with("misses", report.cache.misses()),
        )
        .with("arena", arena)
}

/// This run's simulator-arena activity: checkout reuse/fresh deltas over
/// the sweep. (Entries recorded while the arena could be switched off also
/// carry a bool `enabled` key, which the schema no longer requires.)
fn arena_summary(before: spt::sim::ArenaStats, after: spt::sim::ArenaStats) -> Json {
    Json::obj()
        .with("reuse", after.reuse.saturating_sub(before.reuse))
        .with("fresh", after.fresh.saturating_sub(before.fresh))
}

/// Schema check for one ledger entry; returns the first problem found.
fn validate_entry(e: &Json) -> Result<(), String> {
    let str_key = |k: &str| -> Result<(), String> {
        e.get(k)
            .and_then(Json::as_str)
            .map(|_| ())
            .ok_or_else(|| format!("entry missing string key {k:?}"))
    };
    let num_key = |j: &Json, k: &str| -> Result<f64, String> {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("entry missing numeric key {k:?}"))
    };
    str_key("label")?;
    str_key("experiment")?;
    str_key("scale")?;
    for k in ["workers", "items", "total_sim_cycles"] {
        e.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("entry missing unsigned key {k:?}"))?;
    }
    let wall = num_key(e, "wall_ms")?;
    num_key(e, "compute_ms")?;
    let cps = num_key(e, "sim_cycles_per_sec")?;
    if wall < 0.0 || cps < 0.0 {
        return Err("negative timing/throughput value".into());
    }
    let rate = num_key(e, "superstep_hit_rate")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err("superstep_hit_rate outside [0, 1]".into());
    }
    let phases = e
        .get("phase_ms")
        .ok_or_else(|| "entry missing \"phase_ms\"".to_string())?;
    for k in ["profile_ms", "compile_ms", "baseline_sim_ms", "spt_sim_ms"] {
        num_key(phases, k)?;
    }
    let cache = e
        .get("cache")
        .ok_or_else(|| "entry missing \"cache\"".to_string())?;
    for k in ["hits", "misses"] {
        cache
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("cache missing unsigned key {k:?}"))?;
    }
    // `arena` is object-or-explicit-null: entries recorded before the
    // simulator arena existed carry `null` (the merge backfills it), so
    // every entry exposes the same key set.
    match e.get("arena") {
        None => return Err("entry missing key \"arena\" (null for pre-arena entries)".into()),
        Some(Json::Null) => {}
        Some(a) => {
            for k in ["reuse", "fresh"] {
                a.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("arena missing unsigned key {k:?}"))?;
            }
        }
    }
    Ok(())
}

/// Every entry must expose the same top-level key set: optional fields
/// are explicit nulls, never absent, so downstream tooling can diff
/// entries without per-key existence checks.
fn validate_uniform_keys(entries: &[Json]) -> Result<(), String> {
    let keys = |e: &Json| -> Vec<String> {
        match e {
            Json::Object(pairs) => {
                let mut ks: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
                ks.sort();
                ks
            }
            _ => Vec::new(),
        }
    };
    let first = keys(&entries[0]);
    for e in &entries[1..] {
        let k = keys(e);
        if k != first {
            return Err(format!(
                "entry key drift: {:?} has keys {k:?}, expected {first:?}",
                e.get("label").and_then(Json::as_str).unwrap_or("?")
            ));
        }
    }
    Ok(())
}

/// Schema check for the whole ledger document.
fn validate_ledger(doc: &Json) -> Result<usize, String> {
    doc.get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| "ledger missing string key \"benchmark\"".to_string())?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| "ledger missing array key \"entries\"".to_string())?;
    if entries.is_empty() {
        return Err("ledger has no entries".into());
    }
    for e in entries {
        validate_entry(e)?;
    }
    validate_uniform_keys(entries)?;
    Ok(entries.len())
}

/// Merge `entry` into the ledger at `path`: replace the entry with the
/// same label, keep all others, append otherwise.
fn merge_into_ledger(path: &str, entry: Json, label: &str) -> Json {
    let mut entries: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(doc) => doc
                .get("entries")
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
                .unwrap_or_default(),
            Err(e) => {
                eprintln!("existing {path} is not valid JSON: {e}");
                exit(1);
            }
        },
        Err(_) => Vec::new(),
    };
    match entries
        .iter()
        .position(|e| e.get("label").and_then(Json::as_str) == Some(label))
    {
        Some(i) => entries[i] = entry,
        None => entries.push(entry),
    }
    // Backfill keys the schema gained after an entry was recorded with
    // explicit nulls, keeping every entry's key set uniform.
    let entries: Vec<Json> = entries
        .into_iter()
        .map(|e| {
            if e.get("arena").is_none() {
                e.with("arena", Json::Null)
            } else {
                e
            }
        })
        .collect();
    Json::obj()
        .with("benchmark", "simulator wall-clock: full fig_scale sweep")
        .with("entries", Json::Array(entries))
}

fn main() {
    let flags = Flags::parse(
        &["--scale", "--workers", "--label", "--out"],
        &["--smoke", "--metrics"],
    );
    let smoke = flags.get("--smoke").is_some();
    let with_metrics = flags.get("--metrics").is_some();
    let scale = if smoke {
        Scale::Test
    } else {
        flags.scale(Scale::Full)
    };
    // Single-threaded by default so ledger entries measure the hot path,
    // not the thread pool.
    let workers = flags.workers(Some(1));
    let label = flags.get("--label").unwrap_or("current").to_string();
    let out = flags.get("--out").unwrap_or(DEFAULT_OUT).to_string();

    let names: Vec<&str> = suite(scale).iter().map(|w| w.name).collect();
    let mut sweep = Sweep::new(workers);
    let telemetry = if with_metrics {
        let m = ServeMetrics::new();
        sweep.set_observer(m.sweep_observer());
        Some(m)
    } else {
        None
    };
    let arena_before = spt::sim::arena_stats();
    let (_, report) = sweep.fig_scale(&names, &CORES, scale, &RunConfig::default());
    let arena = arena_summary(arena_before, spt::sim::arena_stats());
    println!("{}", report.summary());
    println!(
        "[perf_bench] {:.0} ms wall, {} sim cycles, {:.0} sim cycles/sec",
        report.wall_ms,
        report.total_sim_cycles(),
        report.sim_cycles_per_sec()
    );
    if let Some(m) = &telemetry {
        let expo = m.render(&sweep);
        match spt_metrics::validate_exposition(&expo) {
            Ok(n) => println!("[perf_bench] telemetry attached: exposition valid, {n} samples"),
            Err(e) => {
                eprintln!("perf_bench: telemetry exposition invalid: {e}");
                exit(1);
            }
        }
    }

    let entry = entry_json(&label, scale, &report, arena);
    if smoke {
        // CI: validate the schema of a fresh single-entry ledger; never
        // touch the committed file, never gate on timing.
        let doc = Json::obj()
            .with("benchmark", "simulator wall-clock: full fig_scale sweep")
            .with("entries", Json::Array(vec![entry]));
        let parsed = Json::parse(&doc.pretty()).unwrap_or_else(|e| {
            eprintln!("perf_bench smoke: emitted JSON does not re-parse: {e}");
            exit(1);
        });
        match validate_ledger(&parsed) {
            Ok(n) => println!("perf_bench smoke: schema ok ({n} entry)"),
            Err(e) => {
                eprintln!("perf_bench smoke: schema violation: {e}");
                exit(1);
            }
        }
        return;
    }

    let doc = merge_into_ledger(&out, entry, &label);
    if let Err(e) = validate_ledger(&doc) {
        eprintln!("refusing to write {out}: {e}");
        exit(1);
    }
    if let Err(e) = std::fs::write(&out, doc.pretty()) {
        eprintln!("failed to write {out}: {e}");
        exit(1);
    }
    println!("wrote entry {label:?} to {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed ledger must always satisfy the current schema —
    /// uniform key sets included (older entries carry explicit nulls for
    /// keys the schema gained later).
    #[test]
    fn committed_ledger_satisfies_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simperf.json");
        let text = std::fs::read_to_string(path).expect("read BENCH_simperf.json");
        let doc = Json::parse(&text).expect("parse BENCH_simperf.json");
        let n = validate_ledger(&doc).expect("committed ledger schema");
        assert!(n >= 1);
    }

    /// New entries' `arena` objects carry only the checkout deltas, and
    /// the schema accepts them next to committed ones that also carry
    /// `enabled`.
    #[test]
    fn arena_entries_validate_without_enabled_key() {
        let before = spt::sim::ArenaStats::default();
        let after = spt::sim::ArenaStats {
            reuse: 5,
            fresh: 2,
            retained_bytes: 64,
        };
        let arena = arena_summary(before, after);
        assert!(arena.get("enabled").is_none());
        assert_eq!(arena.get("reuse").and_then(Json::as_u64), Some(5));
        assert_eq!(arena.get("fresh").and_then(Json::as_u64), Some(2));

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simperf.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(Json::Object(pairs)) = doc
            .get("entries")
            .and_then(Json::as_array)
            .and_then(|es| es.last())
            .cloned()
        else {
            panic!("committed ledger has an object entry");
        };
        let entry = Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    let v = if k == "arena" { arena.clone() } else { v };
                    (k, v)
                })
                .collect(),
        );
        validate_entry(&entry).expect("arena without enabled validates");
    }

    /// Merging a new-schema entry into an old-schema ledger backfills
    /// the old entries with explicit nulls instead of leaving key drift.
    #[test]
    fn merge_backfills_missing_arena_key() {
        let old = Json::obj().with("label", "old");
        let dir = std::env::temp_dir().join("spt_perf_bench_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.json");
        let seed = Json::obj()
            .with("benchmark", "seed")
            .with("entries", Json::Array(vec![old]));
        std::fs::write(&path, seed.pretty()).unwrap();

        let new = Json::obj().with("label", "new").with("arena", Json::Null);
        let doc = merge_into_ledger(path.to_str().unwrap(), new, "new");
        let entries = doc.get("entries").and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), 2);
        for e in entries {
            assert!(
                matches!(e.get("arena"), Some(Json::Null)),
                "entry {:?} missing backfilled arena null",
                e.get("label")
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
