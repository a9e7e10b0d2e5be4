//! The parallel experiment engine.
//!
//! Every evaluation experiment (the figure sweeps, the suite evaluation,
//! the ablations) decomposes into per-benchmark work items whose phases —
//! profile, compile, baseline simulation, SPT simulation — are pure
//! functions of `(program, options/config, fuel)`. This module provides:
//!
//! * [`Sweep`] — a scoped worker pool (`std::thread::scope`, no external
//!   dependencies) that fans work items across `workers` threads while
//!   preserving item order in the results, so parallel and sequential runs
//!   are **bit-identical**;
//! * a content-keyed **memo cache**: each phase result is computed at most
//!   once per process for a given `(program fingerprint, config
//!   fingerprint, fuel)` key, no matter how many experiments share it
//!   (e.g. Figures 8 and 9 both consume the suite evaluation; the SRB
//!   ablation shares one compile across all buffer sizes);
//! * a structured-metrics layer — [`RunReport`], [`BenchRecord`],
//!   [`PhaseTimings`], [`MemoStats`] — recording per-phase wall-clock
//!   times and cache hit/miss counts, serializable as JSON via
//!   [`ToJson`].
//!
//! Determinism contract: all simulators are deterministic, cache values
//! are keyed purely by content, and *no timing data flows into results* —
//! wall-clock numbers live only in `RunReport`. Worker scheduling can
//! change which thread computes a value and how long phases take, never
//! what they produce.

use crate::json::{Json, ToJson};
use crate::solution::{original_annotations, spt_annotations, EvalOutcome, RunConfig};
use crate::store::{self, DiskStore};
use spt_compiler::{compile_candidates, select_candidates, CompileOptions, CompileResult};
use spt_mach::MachineConfig;
use spt_profile::{profile_loops, profile_program, DepProfile, ProgramProfile};
use spt_sim::{simulate_baseline, BaselineReport, LoopAnnotations, SptReport, SptSim};
use spt_sir::Program;
use spt_trace::NullSink;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Content fingerprints
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

use crate::store::fnv1a;

/// Content fingerprint of a program: its full textual rendering plus the
/// initial data image and memory size (which `Display` only summarizes).
pub fn program_fingerprint(prog: &Program) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, prog.to_string().as_bytes());
    h = fnv1a(h, format!("{:?}|{}", prog.data, prog.mem_words).as_bytes());
    h
}

/// Fingerprint of any `Debug`-printable configuration. Derived `Debug`
/// names every field, so two configs collide only if structurally equal.
pub fn debug_fingerprint<T: std::fmt::Debug>(x: &T) -> u64 {
    fnv1a(FNV_OFFSET, format!("{x:?}").as_bytes())
}

/// Memo-cache key: `(program, config, extra, fuel)` fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key(u64, u64, u64, u64);

impl Key {
    /// Fold the four component fingerprints into one content address, the
    /// key form used by the on-disk store.
    fn mix(self) -> u64 {
        let mut h = FNV_OFFSET;
        for part in [self.0, self.1, self.2, self.3] {
            h = fnv1a(h, &part.to_le_bytes());
        }
        h
    }
}

// ---------------------------------------------------------------------------
// Memo cache
// ---------------------------------------------------------------------------

/// What one memoized phase lookup cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStamp {
    /// True if the value was already cached (or another worker computed it).
    pub hit: bool,
    /// Wall-clock milliseconds spent computing, 0.0 on a hit.
    pub ms: f64,
    /// True if the value was loaded from the on-disk store rather than
    /// computed or found in memory (`hit` is also true in that case).
    pub from_store: bool,
}

impl PhaseStamp {
    /// Provenance label for metrics: where this phase's value came from.
    pub fn provenance(&self) -> &'static str {
        if self.from_store {
            "store"
        } else if self.hit {
            "memo"
        } else {
            "computed"
        }
    }
}

/// Observer hook for phase completions and superstep memo activity.
///
/// Strictly one-way: implementations receive copies of observability
/// data (names, stamps, counters) and cannot feed anything back into
/// the sweep — which is what keeps goldens, deterministic JSON, and
/// trace bytes byte-identical whether an observer is attached or not.
/// Callbacks run on worker threads and must be cheap and non-blocking.
pub trait PhaseObserver: Send + Sync {
    /// One memoized phase lookup finished. `phase` is one of
    /// `"profile"`, `"compile"`, `"baseline_sim"`, `"spt_sim"` (the
    /// `MemoStats` JSON keys). The dependence-profile memo is not a phase
    /// here: it is looked up only inside a compile miss, and its time is
    /// part of that compile's stamp; its counters are
    /// [`MemoStats::dep_profile_hits`]/[`MemoStats::dep_profile_misses`].
    fn phase_done(&self, phase: &'static str, stamp: PhaseStamp);

    /// Superstep memo counters for one evaluated work item (zeros when
    /// superstepping is off or both sim phases were cache hits).
    fn superstep(&self, hits: u64, misses: u64) {
        let _ = (hits, misses);
    }
}

/// One phase's memo table. `Arc<OnceLock<..>>` guarantees at-most-once
/// computation per key even when several workers request it concurrently:
/// the map lock is held only for the entry lookup, and `get_or_init`
/// serializes initialization per cell.
struct Shard<T> {
    map: Mutex<HashMap<Key, Arc<OnceLock<Arc<T>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<T> Shard<T> {
    fn get_or_compute(&self, key: Key, f: impl FnOnce() -> T) -> (Arc<T>, PhaseStamp) {
        self.get_or_load(key, || (f(), false))
    }

    /// Like [`Shard::get_or_compute`], but the initializer also reports
    /// whether the value was *loaded* (from the on-disk store) rather than
    /// computed. Loaded values count as memo misses in the shard counters
    /// (this process's in-memory cache did miss) but return a `hit` stamp,
    /// so per-record accounting — and `RunReport::total_sim_cycles`, which
    /// only sums phases that actually simulated — stays honest.
    fn get_or_load(&self, key: Key, f: impl FnOnce() -> (T, bool)) -> (Arc<T>, PhaseStamp) {
        let cell = {
            let mut m = self.map.lock().unwrap();
            m.entry(key).or_default().clone()
        };
        let t0 = Instant::now();
        let mut computed = false;
        let mut loaded = false;
        let v = cell
            .get_or_init(|| {
                computed = true;
                let (t, from_store) = f();
                loaded = from_store;
                Arc::new(t)
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if loaded {
                (
                    v,
                    PhaseStamp {
                        hit: true,
                        ms: 0.0,
                        from_store: true,
                    },
                )
            } else {
                (
                    v,
                    PhaseStamp {
                        hit: false,
                        ms,
                        from_store: false,
                    },
                )
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            (
                v,
                PhaseStamp {
                    hit: true,
                    ms: 0.0,
                    from_store: false,
                },
            )
        }
    }
}

/// Snapshot of the memo cache's hit/miss counters, per phase.
///
/// The `dep_profile` pair counts the dependence-profile memo, which only
/// compile misses consult: every core width of one program selects the
/// same candidate loops, so its compiles share one dependence profile.
/// [`MemoStats::hits`] and [`MemoStats::misses`] sum the four pipeline
/// phases only, so a nested lookup is not counted twice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    pub profile_hits: u64,
    pub profile_misses: u64,
    pub compile_hits: u64,
    pub compile_misses: u64,
    pub dep_profile_hits: u64,
    pub dep_profile_misses: u64,
    pub baseline_hits: u64,
    pub baseline_misses: u64,
    pub spt_hits: u64,
    pub spt_misses: u64,
}

impl MemoStats {
    pub fn hits(&self) -> u64 {
        self.profile_hits + self.compile_hits + self.baseline_hits + self.spt_hits
    }

    pub fn misses(&self) -> u64 {
        self.profile_misses + self.compile_misses + self.baseline_misses + self.spt_misses
    }

    /// Counter deltas since an earlier snapshot (for per-experiment stats
    /// on a shared engine).
    pub fn since(&self, before: &MemoStats) -> MemoStats {
        MemoStats {
            profile_hits: self.profile_hits - before.profile_hits,
            profile_misses: self.profile_misses - before.profile_misses,
            compile_hits: self.compile_hits - before.compile_hits,
            compile_misses: self.compile_misses - before.compile_misses,
            dep_profile_hits: self.dep_profile_hits - before.dep_profile_hits,
            dep_profile_misses: self.dep_profile_misses - before.dep_profile_misses,
            baseline_hits: self.baseline_hits - before.baseline_hits,
            baseline_misses: self.baseline_misses - before.baseline_misses,
            spt_hits: self.spt_hits - before.spt_hits,
            spt_misses: self.spt_misses - before.spt_misses,
        }
    }
}

impl MemoStats {
    /// Inverse of [`ToJson::to_json`]; `None` on any missing field.
    pub fn from_json(j: &Json) -> Option<MemoStats> {
        let pair = |k: &str| -> Option<(u64, u64)> {
            let p = j.get(k)?;
            Some((p.get("hits")?.as_u64()?, p.get("misses")?.as_u64()?))
        };
        let (profile_hits, profile_misses) = pair("profile")?;
        let (compile_hits, compile_misses) = pair("compile")?;
        let (dep_profile_hits, dep_profile_misses) = pair("dep_profile")?;
        let (baseline_hits, baseline_misses) = pair("baseline_sim")?;
        let (spt_hits, spt_misses) = pair("spt_sim")?;
        Some(MemoStats {
            profile_hits,
            profile_misses,
            compile_hits,
            compile_misses,
            dep_profile_hits,
            dep_profile_misses,
            baseline_hits,
            baseline_misses,
            spt_hits,
            spt_misses,
        })
    }
}

impl ToJson for MemoStats {
    fn to_json(&self) -> Json {
        let pair = |h: u64, m: u64| Json::obj().with("hits", h).with("misses", m);
        Json::obj()
            .with("profile", pair(self.profile_hits, self.profile_misses))
            .with("compile", pair(self.compile_hits, self.compile_misses))
            .with(
                "dep_profile",
                pair(self.dep_profile_hits, self.dep_profile_misses),
            )
            .with(
                "baseline_sim",
                pair(self.baseline_hits, self.baseline_misses),
            )
            .with("spt_sim", pair(self.spt_hits, self.spt_misses))
    }
}

// ---------------------------------------------------------------------------
// Structured metrics
// ---------------------------------------------------------------------------

/// Wall-clock milliseconds per pipeline phase; 0.0 when the phase was a
/// cache hit or did not run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    pub profile_ms: f64,
    pub compile_ms: f64,
    pub baseline_ms: f64,
    pub spt_ms: f64,
}

impl PhaseTimings {
    pub fn total_ms(&self) -> f64 {
        self.profile_ms + self.compile_ms + self.baseline_ms + self.spt_ms
    }
}

impl ToJson for PhaseTimings {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("profile_ms", self.profile_ms)
            .with("compile_ms", self.compile_ms)
            .with("baseline_sim_ms", self.baseline_ms)
            .with("spt_sim_ms", self.spt_ms)
    }
}

/// Metrics for one work item (usually one benchmark, or one
/// benchmark × variant point in an ablation).
#[derive(Clone, Debug, Default)]
pub struct BenchRecord {
    pub name: String,
    pub timings: PhaseTimings,
    /// Which phases were served from the memo cache.
    pub profile_hit: bool,
    pub compile_hit: bool,
    pub baseline_hit: bool,
    pub spt_hit: bool,
    /// Cycle stats, when the item ran the simulators.
    pub baseline_cycles: Option<u64>,
    pub spt_cycles: Option<u64>,
    pub speedup: Option<f64>,
    pub semantics_ok: Option<bool>,
    /// Block-superstep memo activity summed over this item's baseline and
    /// SPT simulations (0 when superstepping is off or both phases were
    /// cache hits — a hit replays a stored report and simulates nothing).
    pub superstep_hits: u64,
    pub superstep_misses: u64,
}

impl BenchRecord {
    /// Inverse of [`ToJson::to_json`]; `None` on any missing field.
    pub fn from_json(j: &Json) -> Option<BenchRecord> {
        let t = j.get("timings")?;
        let hits = j.get("cache_hits")?;
        let opt_u64 = |k: &str| -> Option<u64> { j.get(k).and_then(Json::as_u64) };
        Some(BenchRecord {
            name: j.get("name")?.as_str()?.to_string(),
            timings: PhaseTimings {
                profile_ms: t.get("profile_ms")?.as_f64()?,
                compile_ms: t.get("compile_ms")?.as_f64()?,
                baseline_ms: t.get("baseline_sim_ms")?.as_f64()?,
                spt_ms: t.get("spt_sim_ms")?.as_f64()?,
            },
            profile_hit: hits.get("profile")?.as_bool()?,
            compile_hit: hits.get("compile")?.as_bool()?,
            baseline_hit: hits.get("baseline_sim")?.as_bool()?,
            spt_hit: hits.get("spt_sim")?.as_bool()?,
            baseline_cycles: opt_u64("baseline_cycles"),
            spt_cycles: opt_u64("spt_cycles"),
            speedup: j.get("speedup").and_then(Json::as_f64),
            semantics_ok: j.get("semantics_ok").and_then(Json::as_bool),
            // Absent in records serialized before the superstep fields
            // existed: read as 0 rather than failing the whole record.
            superstep_hits: opt_u64("superstep_hits").unwrap_or(0),
            superstep_misses: opt_u64("superstep_misses").unwrap_or(0),
        })
    }
}

impl ToJson for BenchRecord {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("timings", self.timings.to_json())
            .with(
                "cache_hits",
                Json::obj()
                    .with("profile", self.profile_hit)
                    .with("compile", self.compile_hit)
                    .with("baseline_sim", self.baseline_hit)
                    .with("spt_sim", self.spt_hit),
            )
            .with("baseline_cycles", self.baseline_cycles)
            .with("spt_cycles", self.spt_cycles)
            .with("speedup", self.speedup)
            .with("semantics_ok", self.semantics_ok)
            .with("superstep_hits", self.superstep_hits)
            .with("superstep_misses", self.superstep_misses)
    }
}

/// The observability record of one experiment run: wall-clock, worker
/// count, per-item records, and cache counters. Every `spt-bench` binary
/// can serialize one of these as machine-readable JSON next to its text
/// tables.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Experiment name (`"fig8"`, `"ablation_srb"`, ...).
    pub experiment: String,
    /// Worker threads the sweep ran with.
    pub workers: usize,
    /// End-to-end wall-clock of the experiment, milliseconds.
    pub wall_ms: f64,
    pub records: Vec<BenchRecord>,
    /// Cache activity during this experiment (deltas, not process totals).
    pub cache: MemoStats,
    /// Per-benchmark trace-histogram folds, present only on traced runs
    /// (see [`crate::trace`]): an object keyed by benchmark name.
    pub histograms: Option<Json>,
}

impl RunReport {
    /// Sum of per-phase compute time across records — the work a
    /// sequential run would serialize. `wall_ms` below this sum means the
    /// sweep overlapped work; the ratio is the parallel speedup.
    pub fn compute_ms(&self) -> f64 {
        self.records.iter().map(|r| r.timings.total_ms()).sum()
    }

    /// Simulated cycles actually executed during this run: baseline and
    /// SPT cycles of records whose simulation phase was a cache *miss*
    /// (hits replay a memoized result and simulate nothing).
    pub fn total_sim_cycles(&self) -> u64 {
        self.records
            .iter()
            .map(|r| {
                let b = if r.baseline_hit {
                    0
                } else {
                    r.baseline_cycles.unwrap_or(0)
                };
                let s = if r.spt_hit {
                    0
                } else {
                    r.spt_cycles.unwrap_or(0)
                };
                b + s
            })
            .sum()
    }

    /// Fraction of superstep memo probes served from the table across all
    /// records, `hits / (hits + misses)`; 0.0 when superstepping was off
    /// or nothing simulated. Timing-adjacent observability — like
    /// `wall_ms` it stays out of [`RunReport::deterministic_json`], though
    /// unlike `wall_ms` it is in fact deterministic for a fixed config.
    pub fn superstep_hit_rate(&self) -> f64 {
        let hits: u64 = self.records.iter().map(|r| r.superstep_hits).sum();
        let total: u64 = hits + self.records.iter().map(|r| r.superstep_misses).sum::<u64>();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Simulator throughput: executed simulated cycles per wall-clock
    /// second (0.0 for an instantaneous or simulation-free run).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.total_sim_cycles() as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }

    /// Inverse of [`ToJson::to_json`]: reconstruct a report from its JSON
    /// form. Derived quantities (`compute_ms`, `total_sim_cycles`, ...)
    /// are recomputed from the records, not read back. This is what lets
    /// a bench binary in `--server` mode treat the daemon's report exactly
    /// like a locally produced one.
    pub fn from_json(j: &Json) -> Option<RunReport> {
        Some(RunReport {
            experiment: j.get("experiment")?.as_str()?.to_string(),
            workers: j.get("workers")?.as_u64()? as usize,
            wall_ms: j.get("wall_ms")?.as_f64()?,
            records: j
                .get("records")?
                .as_array()?
                .iter()
                .map(BenchRecord::from_json)
                .collect::<Option<Vec<_>>>()?,
            cache: MemoStats::from_json(j.get("cache")?)?,
            histograms: j.get("histograms").cloned(),
        })
    }

    /// The timing-free projection of this report: experiment name plus,
    /// per record, only content-derived values (names, cycle counts,
    /// speedups, semantics checks). Two runs of the same experiment —
    /// direct or daemon-served, cold or from the warm store, at any worker
    /// count — must serialize this projection to identical bytes; the
    /// differential tests and the CI daemon smoke step diff exactly these.
    pub fn deterministic_json(&self) -> Json {
        Json::obj()
            .with("experiment", self.experiment.as_str())
            .with(
                "records",
                Json::Array(
                    self.records
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .with("name", r.name.as_str())
                                .with("baseline_cycles", r.baseline_cycles)
                                .with("spt_cycles", r.spt_cycles)
                                .with("speedup", r.speedup)
                                .with("semantics_ok", r.semantics_ok)
                        })
                        .collect(),
                ),
            )
    }

    /// One-line human summary (printed by the bench binaries).
    pub fn summary(&self) -> String {
        format!(
            "[{}] {} items in {:.0} ms wall ({:.0} ms compute) on {} workers; cache {} hits / {} misses",
            self.experiment,
            self.records.len(),
            self.wall_ms,
            self.compute_ms(),
            self.workers,
            self.cache.hits(),
            self.cache.misses()
        )
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .with("experiment", self.experiment.as_str())
            .with("workers", self.workers)
            .with("wall_ms", self.wall_ms)
            .with("compute_ms", self.compute_ms())
            .with("total_sim_cycles", self.total_sim_cycles())
            .with("sim_cycles_per_sec", self.sim_cycles_per_sec())
            .with("superstep_hit_rate", self.superstep_hit_rate())
            .with("cache", self.cache.to_json())
            .with(
                "records",
                Json::Array(self.records.iter().map(ToJson::to_json).collect()),
            );
        if let Some(h) = &self.histograms {
            j = j.with("histograms", h.clone());
        }
        j
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Parallel experiment engine: a worker pool plus the process-wide memo
/// cache for the four pipeline phases (and the dependence profiles that
/// compile misses share).
pub struct Sweep {
    workers: usize,
    profiles: Shard<ProgramProfile>,
    compiles: Shard<CompileResult>,
    dep_profiles: Shard<DepProfile>,
    baselines: Shard<BaselineReport>,
    spts: Shard<SptReport>,
    /// Optional on-disk extension of the simulation-phase memo keys: when
    /// attached, baseline/SPT results missing from the in-memory cache are
    /// looked up in (and computed results written to) the content-addressed
    /// store. Profile and compile results stay in-memory only — they are
    /// cheap relative to simulation and their payloads (full programs)
    /// would dominate the store.
    store: Option<Arc<DiskStore>>,
    /// Optional telemetry sink notified after each phase lookup and each
    /// evaluated item. Purely observational — see [`PhaseObserver`].
    observer: Option<Arc<dyn PhaseObserver>>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::auto()
    }
}

impl Sweep {
    /// An engine with exactly `workers` threads (min 1).
    pub fn new(workers: usize) -> Sweep {
        Sweep {
            workers: workers.max(1),
            profiles: Shard::default(),
            compiles: Shard::default(),
            dep_profiles: Shard::default(),
            baselines: Shard::default(),
            spts: Shard::default(),
            store: None,
            observer: None,
        }
    }

    /// An engine whose simulation-phase memo cache extends onto disk:
    /// results are served from `store` across processes and persisted on
    /// compute. This is the daemon's configuration.
    pub fn with_store(workers: usize, store: Arc<DiskStore>) -> Sweep {
        let mut sw = Sweep::new(workers);
        sw.store = Some(store);
        sw
    }

    /// The attached on-disk store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// Attach a telemetry observer. At most one; attaching replaces any
    /// previous observer.
    pub fn set_observer(&mut self, obs: Arc<dyn PhaseObserver>) {
        self.observer = Some(obs);
    }

    #[inline]
    fn observe_phase(&self, phase: &'static str, stamp: PhaseStamp) {
        if let Some(obs) = &self.observer {
            obs.phase_done(phase, stamp);
        }
    }

    /// Single-threaded engine (still memoizes).
    pub fn sequential() -> Sweep {
        Sweep::new(1)
    }

    /// Worker count from the `SPT_WORKERS` environment variable, falling
    /// back to the machine's available parallelism.
    pub fn auto() -> Sweep {
        Sweep::new(default_workers())
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current cumulative cache counters.
    pub fn memo_stats(&self) -> MemoStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MemoStats {
            profile_hits: ld(&self.profiles.hits),
            profile_misses: ld(&self.profiles.misses),
            compile_hits: ld(&self.compiles.hits),
            compile_misses: ld(&self.compiles.misses),
            dep_profile_hits: ld(&self.dep_profiles.hits),
            dep_profile_misses: ld(&self.dep_profiles.misses),
            baseline_hits: ld(&self.baselines.hits),
            baseline_misses: ld(&self.baselines.misses),
            spt_hits: ld(&self.spts.hits),
            spt_misses: ld(&self.spts.misses),
        }
    }

    /// Fan `items` across the worker pool, preserving order: `result[i]`
    /// is `f(i, &items[i])` regardless of which worker ran it or when.
    /// With one worker (or one item) this runs inline on the caller's
    /// thread. A panic in any item propagates after all workers finish.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i, &items[i]);
                    done.lock().unwrap().push((i, r));
                });
            }
        });
        let mut v = done.into_inner().unwrap();
        v.sort_by_key(|(i, _)| *i);
        v.into_iter().map(|(_, r)| r).collect()
    }

    // -- memoized pipeline phases ------------------------------------------

    /// Profile a program (memoized on program content + fuel).
    pub fn profile(&self, prog: &Program, fuel: u64) -> (Arc<ProgramProfile>, PhaseStamp) {
        let key = Key(program_fingerprint(prog), fuel, 0, 0);
        let (p, stamp) = self
            .profiles
            .get_or_compute(key, || profile_program(prog, fuel));
        self.observe_phase("profile", stamp);
        (p, stamp)
    }

    /// Compile a program (memoized on program content + options). The
    /// profiling pass inside compilation goes through the profile cache,
    /// so e.g. Figure 6 and a suite evaluation share one profile per
    /// benchmark. A compile miss resolves its candidates' dependence
    /// profile through its own memo, keyed by program, the ordered
    /// candidate list and fuel, so option sets that select the same
    /// candidates (every core width) profile dependences once. Returns
    /// `(result, compile stamp, profile stamp)`.
    pub fn compile(
        &self,
        prog: &Program,
        opts: &CompileOptions,
    ) -> (Arc<CompileResult>, PhaseStamp, PhaseStamp) {
        let (profile, pstamp) = self.profile(prog, opts.profile_fuel);
        let fp = program_fingerprint(prog);
        let key = Key(fp, debug_fingerprint(opts), 0, 0);
        let (res, cstamp) = self.compiles.get_or_compute(key, || {
            let candidates = select_candidates(prog, opts, &profile, &mut NullSink);
            let keys = candidates.keys();
            let dkey = Key(fp, debug_fingerprint(&keys), opts.profile_fuel, 0);
            let (deps, _) = self
                .dep_profiles
                .get_or_compute(dkey, || profile_loops(prog, &keys, opts.profile_fuel));
            compile_candidates(
                prog,
                opts,
                (*profile).clone(),
                candidates,
                &deps,
                &mut NullSink,
            )
        });
        self.observe_phase("compile", cstamp);
        (res, cstamp, pstamp)
    }

    /// Baseline (sequential one-core) simulation, memoized on program
    /// content, machine config, loop annotations and fuel.
    pub fn baseline(
        &self,
        prog: &Program,
        machine: &MachineConfig,
        annots: &LoopAnnotations,
        fuel: u64,
    ) -> (Arc<BaselineReport>, PhaseStamp) {
        let key = Key(
            program_fingerprint(prog),
            debug_fingerprint(machine),
            debug_fingerprint(annots),
            fuel,
        );
        let (r, stamp) = self.baselines.get_or_load(key, || {
            if let Some(st) = &self.store {
                if let Some(r) = st
                    .load("baseline", key.mix())
                    .and_then(|j| store::baseline_report_from_json(&j))
                {
                    return (r, true);
                }
            }
            let r = simulate_baseline(prog, machine, annots, fuel);
            if let Some(st) = &self.store {
                st.save("baseline", key.mix(), &store::baseline_report_json(&r));
            }
            (r, false)
        });
        self.observe_phase("baseline_sim", stamp);
        (r, stamp)
    }

    /// Two-core SPT simulation of a (transformed) program, memoized like
    /// [`Sweep::baseline`].
    pub fn spt_sim(
        &self,
        prog: &Program,
        machine: &MachineConfig,
        annots: &LoopAnnotations,
        fuel: u64,
    ) -> (Arc<SptReport>, PhaseStamp) {
        let key = Key(
            program_fingerprint(prog),
            debug_fingerprint(machine),
            debug_fingerprint(annots),
            fuel,
        );
        let (r, stamp) = self.spts.get_or_load(key, || {
            if let Some(st) = &self.store {
                if let Some(r) = st
                    .load("spt_sim", key.mix())
                    .and_then(|j| store::spt_report_from_json(&j))
                {
                    return (r, true);
                }
            }
            let r = SptSim::new(prog, machine.clone(), annots.clone()).run(fuel);
            if let Some(st) = &self.store {
                st.save("spt_sim", key.mix(), &store::spt_report_json(&r));
            }
            (r, false)
        });
        self.observe_phase("spt_sim", stamp);
        (r, stamp)
    }

    /// The full evaluation pipeline for one program, phase by phase
    /// through the memo cache. Produces exactly what
    /// [`crate::solution::evaluate_program`] produces, plus the metrics
    /// record. Does **not** assert semantics — callers running inside
    /// worker threads collect outcomes first and assert on their own
    /// thread.
    pub fn evaluate(
        &self,
        name: &str,
        prog: &Program,
        cfg: &RunConfig,
    ) -> (EvalOutcome, BenchRecord) {
        let (compiled, cstamp, pstamp) = self.compile(prog, &cfg.compile);

        let base_annots = original_annotations(prog, &compiled);
        let (baseline, bstamp) = self.baseline(prog, &cfg.machine, &base_annots, cfg.fuel);

        let annots = spt_annotations(&compiled);
        let (spt, sstamp) = self.spt_sim(&compiled.program, &cfg.machine, &annots, cfg.fuel);

        let outcome = EvalOutcome {
            name: name.to_string(),
            baseline_loop_cycles: baseline.loop_cycles.clone(),
            baseline: (*baseline).clone(),
            spt: (*spt).clone(),
            compiled: (*compiled).clone(),
        };
        let record = BenchRecord {
            name: name.to_string(),
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
            baseline_cycles: Some(outcome.baseline.cycles),
            spt_cycles: Some(outcome.spt.cycles),
            speedup: Some(outcome.speedup()),
            semantics_ok: Some(outcome.semantics_ok()),
            superstep_hits: outcome.baseline.superstep_hits + outcome.spt.superstep_hits,
            superstep_misses: outcome.baseline.superstep_misses + outcome.spt.superstep_misses,
        };
        if let Some(obs) = &self.observer {
            obs.superstep(record.superstep_hits, record.superstep_misses);
        }
        (outcome, record)
    }

    /// Assemble a [`RunReport`] for an experiment that started at `t0`
    /// with cache counters `before`.
    pub(crate) fn report_since(
        &self,
        experiment: &str,
        t0: Instant,
        before: MemoStats,
        records: Vec<BenchRecord>,
    ) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            workers: self.workers,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            records,
            cache: self.memo_stats().since(&before),
            histograms: None,
        }
    }
}

/// `SPT_WORKERS` env var, else available parallelism.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("SPT_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_workloads::kernels::array_map;

    #[test]
    fn fingerprints_separate_programs_and_configs() {
        let a = array_map(64, 8);
        let b = array_map(65, 8);
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
        assert_eq!(
            program_fingerprint(&a),
            program_fingerprint(&array_map(64, 8))
        );

        let m1 = MachineConfig::default();
        let mut m2 = MachineConfig::default();
        m2.srb_entries = 16;
        assert_ne!(debug_fingerprint(&m1), debug_fingerprint(&m2));
    }

    #[test]
    fn map_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 3, 8] {
            let sw = Sweep::new(workers);
            let got = sw.map(&items, |_, &x| x * x);
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    #[test]
    fn memo_computes_each_key_once() {
        let sw = Sweep::new(4);
        let prog = array_map(80, 8);
        // Hammer the same profile from many workers.
        let idxs: Vec<usize> = (0..16).collect();
        let fps: Vec<u64> = sw.map(&idxs, |_, _| {
            let (p, _) = sw.profile(&prog, 1_000_000);
            Arc::as_ptr(&p) as u64
        });
        // Everyone saw the same allocation.
        assert!(fps.windows(2).all(|w| w[0] == w[1]));
        let stats = sw.memo_stats();
        assert_eq!(stats.profile_misses, 1);
        assert_eq!(stats.profile_hits, 15);
    }

    #[test]
    fn evaluate_matches_direct_pipeline() {
        let prog = array_map(100, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;
        let sw = Sweep::sequential();
        let (a, record) = sw.evaluate("array_map", &prog, &cfg);
        let b = crate::solution::evaluate_program("array_map", &prog, &cfg);
        assert_eq!(a.baseline.cycles, b.baseline.cycles);
        assert_eq!(a.spt.cycles, b.spt.cycles);
        assert_eq!(a.baseline.ret, b.baseline.ret);
        assert_eq!(a.spt.ret, b.spt.ret);
        assert!(!record.compile_hit && !record.spt_hit);
        // Second evaluation: everything hits.
        let (_, r2) = sw.evaluate("array_map", &prog, &cfg);
        assert!(r2.profile_hit && r2.compile_hit && r2.baseline_hit && r2.spt_hit);
        assert_eq!(r2.timings.total_ms(), 0.0);
    }

    #[test]
    fn report_serializes_with_stable_schema() {
        let rep = RunReport {
            experiment: "demo".into(),
            workers: 2,
            wall_ms: 1.5,
            records: vec![BenchRecord {
                name: "b".into(),
                speedup: Some(1.25),
                baseline_cycles: Some(3000),
                spt_cycles: Some(1500),
                superstep_hits: 3,
                superstep_misses: 1,
                ..Default::default()
            }],
            cache: MemoStats {
                compile_misses: 30,
                dep_profile_hits: 20,
                dep_profile_misses: 10,
                ..Default::default()
            },
            histograms: None,
        };
        let s = rep.to_json().dump();
        for key in [
            "\"experiment\":\"demo\"",
            "\"workers\":2",
            "\"wall_ms\":1.5",
            "\"total_sim_cycles\":4500",
            "\"sim_cycles_per_sec\":3000000",
            // Block-superstep memo observability: aggregate hit rate at the
            // report level, raw counters per record.
            "\"superstep_hit_rate\":0.75",
            "\"cache\":",
            "\"profile\":{\"hits\":0,\"misses\":0}",
            // The dependence-profile memo, consulted by compile misses.
            "\"dep_profile\":{\"hits\":20,\"misses\":10}",
            "\"records\":",
            "\"speedup\":1.25",
            "\"superstep_hits\":3",
            "\"superstep_misses\":1",
            "\"timings\":",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        // The nested memo stays out of the phase totals.
        assert_eq!((rep.cache.hits(), rep.cache.misses()), (0, 30));
        assert_eq!(
            RunReport::from_json(&rep.to_json()).unwrap().cache,
            rep.cache
        );
        // The timing-free projection diffed by CI must not grow
        // environment-sensitive keys.
        assert!(!rep.deterministic_json().dump().contains("superstep"));
    }

    #[test]
    fn observer_sees_phases_without_changing_results() {
        #[derive(Default)]
        struct Probe {
            events: Mutex<Vec<(&'static str, &'static str)>>,
            superstep: AtomicU64,
        }
        impl PhaseObserver for Probe {
            fn phase_done(&self, phase: &'static str, stamp: PhaseStamp) {
                self.events
                    .lock()
                    .unwrap()
                    .push((phase, stamp.provenance()));
            }
            fn superstep(&self, hits: u64, misses: u64) {
                self.superstep.fetch_add(hits + misses, Ordering::Relaxed);
            }
        }

        let prog = array_map(100, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;

        let plain = Sweep::sequential();
        let (baseline_outcome, _) = plain.evaluate("array_map", &prog, &cfg);

        let probe = Arc::new(Probe::default());
        let mut sw = Sweep::sequential();
        sw.set_observer(probe.clone());
        let (o1, _) = sw.evaluate("array_map", &prog, &cfg);
        assert_eq!(
            o1.to_json().dump(),
            baseline_outcome.to_json().dump(),
            "observer must not perturb results"
        );
        {
            let ev = probe.events.lock().unwrap();
            for phase in ["profile", "compile", "baseline_sim", "spt_sim"] {
                assert!(
                    ev.contains(&(phase, "computed")),
                    "missing computed {phase} in {ev:?}"
                );
            }
        }
        // Second evaluation: every phase reports memo provenance.
        let _ = sw.evaluate("array_map", &prog, &cfg);
        let ev = probe.events.lock().unwrap();
        for phase in ["profile", "compile", "baseline_sim", "spt_sim"] {
            assert!(
                ev.contains(&(phase, "memo")),
                "missing memo {phase} in {ev:?}"
            );
        }
    }

    #[test]
    fn observer_sees_store_provenance() {
        struct Probe(Mutex<Vec<(&'static str, &'static str)>>);
        impl PhaseObserver for Probe {
            fn phase_done(&self, phase: &'static str, stamp: PhaseStamp) {
                self.0.lock().unwrap().push((phase, stamp.provenance()));
            }
        }

        let dir = std::env::temp_dir().join(format!("spt-obs-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let st = Arc::new(DiskStore::open(&dir).unwrap());
        let prog = array_map(80, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;

        let warm = Sweep::with_store(1, st.clone());
        let _ = warm.evaluate("array_map", &prog, &cfg);

        let probe = Arc::new(Probe(Mutex::new(Vec::new())));
        let mut sw = Sweep::with_store(1, st);
        sw.set_observer(probe.clone());
        let _ = sw.evaluate("array_map", &prog, &cfg);
        let ev = probe.0.lock().unwrap();
        assert!(ev.contains(&("baseline_sim", "store")), "{ev:?}");
        assert!(ev.contains(&("spt_sim", "store")), "{ev:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_serves_sim_phases_across_engines() {
        let dir = std::env::temp_dir().join(format!("spt-sweep-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let st = Arc::new(DiskStore::open(&dir).unwrap());
        let prog = array_map(80, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;

        let a = Sweep::with_store(1, st.clone());
        let (o1, r1) = a.evaluate("array_map", &prog, &cfg);
        assert!(!r1.baseline_hit && !r1.spt_hit);

        // A fresh engine sharing the store: the simulation phases load
        // from disk (hit stamps, nothing simulated), profile and compile
        // recompute, and the outcome is byte-identical.
        let b = Sweep::with_store(1, st.clone());
        let (o2, r2) = b.evaluate("array_map", &prog, &cfg);
        assert!(
            r2.baseline_hit && r2.spt_hit,
            "sim phases must come from disk"
        );
        assert!(!r2.compile_hit, "compile is not persisted");
        assert_eq!(o1.to_json().dump(), o2.to_json().dump());
        assert!(st.stats().hits >= 2);
        assert!(st.stats().writes >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_report_json_roundtrips() {
        let prog = array_map(64, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;
        let sw = Sweep::sequential();
        let (_, record) = sw.evaluate("array_map", &prog, &cfg);
        let rep = RunReport {
            experiment: "roundtrip".into(),
            workers: 3,
            wall_ms: 12.25,
            records: vec![record],
            cache: sw.memo_stats(),
            histograms: Some(Json::obj().with("k", 1u64)),
        };
        let back = RunReport::from_json(&rep.to_json()).expect("parses back");
        assert_eq!(back.to_json().dump(), rep.to_json().dump());
        assert_eq!(
            back.deterministic_json().dump(),
            rep.deterministic_json().dump()
        );
    }

    #[test]
    fn sim_cycle_throughput_counts_only_executed_phases() {
        let mut rep = RunReport {
            experiment: "demo".into(),
            workers: 1,
            wall_ms: 2000.0,
            records: vec![
                BenchRecord {
                    name: "ran".into(),
                    baseline_cycles: Some(100),
                    spt_cycles: Some(60),
                    ..Default::default()
                },
                BenchRecord {
                    name: "cached".into(),
                    baseline_hit: true,
                    spt_hit: true,
                    baseline_cycles: Some(100),
                    spt_cycles: Some(60),
                    ..Default::default()
                },
            ],
            cache: MemoStats::default(),
            histograms: None,
        };
        // Only the executed record's cycles count toward throughput.
        assert_eq!(rep.total_sim_cycles(), 160);
        assert_eq!(rep.sim_cycles_per_sec(), 80.0);
        rep.wall_ms = 0.0;
        assert_eq!(rep.sim_cycles_per_sec(), 0.0);
    }
}
