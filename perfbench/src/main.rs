//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <fig_scale_full|sim_sweep|serve_replay> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through its public entry points, checks every
//! output it can against an independent reference, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`). See `perfbench/README.md` for what each workload
//! and metric is for.

mod batch;
mod probes;
mod serve;
mod stats;
mod trace;

use batch::{SuiteRefs, Unit, POLICIES};
use spt::service::FIG_SCALE_CORES;
use spt::workloads::Scale;
use spt::{Json, RunConfig, Sweep, EXPERIMENT_NAMES};
use stats::{median, percentile, Rng};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["fig_scale_full", "sim_sweep", "serve_replay"];

/// Set-up runs at least this many times and for at least
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median. Host speed can swing
/// by 1.5x from one second to the next, so a cheap set-up (about 70 ms on
/// `fig_scale_full`) repeats for about as long as three of the costly
/// set-ups of the other workloads take.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 6.0;

/// Operation counts and the first few failure descriptions.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// One attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(what());
            }
        }
    }

    /// `n` operations that succeeded.
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    fn json(&self) -> Json {
        let mut j = Json::obj();
        for m in &self.0 {
            j = j.with(
                &m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        j
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut c = std::process::Command::new(cmd);
    c.args(args);
    // Never let git find a repository above the benchmark's own tree.
    if let Some(parent) = cwd.parent() {
        c.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match c.output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

/// Everything a result depends on besides the code: recorded with every
/// result so runs under different conditions are never compared blind.
fn environment(args: &Args, scale: &str, clients: usize) -> Json {
    // `run.py` removes every `SPT_*` variable from the benchmark's
    // environment and hands over the ones it found, one `K=V` a line, in
    // PERFBENCH_CALLER_SPT_ENV; any still set here are recorded too.
    let caller = std::env::var("PERFBENCH_CALLER_SPT_ENV").unwrap_or_default();
    let mut vars: Vec<(String, String)> = caller
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .chain(std::env::vars().filter(|(k, _)| k.starts_with("SPT_")))
        .collect();
    vars.sort();
    vars.dedup();
    let mut spt_vars = Json::obj();
    for (k, v) in vars {
        spt_vars = spt_vars.with(&k, v);
    }
    Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_line("rustc", &["-V"]))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("scale", scale)
        .with("sweep_workers", 1usize)
        .with("clients", clients)
        .with("spt_env", spt_vars)
}

/// Run `unit` until `seconds` have elapsed, at least once.
fn timed<U>(seconds: f64, mut unit: impl FnMut() -> U) -> Vec<U> {
    let t0 = Instant::now();
    let mut units = Vec::new();
    while units.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        units.push(unit());
    }
    units
}

/// Median seconds of repeated set-ups; returns the last set-up.
fn setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// How many samples stand behind the reported medians and percentiles,
/// and how far the timed units spread.
fn sample_notes(unit_secs: &[f64], latencies: usize) -> Json {
    let (q1, q2, q3) = stats::quartiles(unit_secs);
    Json::obj()
        .with("units", unit_secs.len())
        .with("unit_s_quartiles", Json::array([q1, q2, q3]))
        .with("unit_s_spread", stats::relative_spread(unit_secs))
        .with("latency_samples", latencies)
        .with(
            "latency_samples_beyond_p99",
            stats::samples_beyond(latencies, 0.99),
        )
}

/// End-to-end metrics of a batch workload's units: medians over the
/// units, percentiles over every item of every unit.
fn batch_metrics(m: &mut Metrics, notes: &mut Json, setup_s: f64, units: &[Unit]) {
    let secs: Vec<f64> = units.iter().map(|u| u.secs).collect();
    let items: Vec<f64> = units
        .iter()
        .flat_map(|u| u.item_ms.iter().copied())
        .collect();
    *notes = sample_notes(&secs, items.len()).with("total_sim_cycles", units[0].sim.cycles);
    let per_unit = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", median(&secs), "s");
    m.put(
        "sim_mips",
        per_unit(&|u| u.sim.instrs() as f64 / u.secs / 1e6),
        "Minstr/s",
    );
    m.put(
        "req_per_s",
        per_unit(&|u| u.item_ms.len() as f64 / u.secs),
        "1/s",
    );
    m.put("latency_ms_p50", percentile(&items, 0.5), "ms");
    m.put("latency_ms_p99", percentile(&items, 0.99), "ms");
}

/// Work done must repeat exactly from unit to unit.
fn check_repeats(units: &[Unit], checks: &mut Checks) {
    for u in units.iter().skip(1) {
        checks.check(u.sim == units[0].sim && u.memo == units[0].memo, || {
            "simulated work differs between identical units".into()
        });
    }
}

/// Per-layer metrics shared by every workload's traced run.
struct LayerRun<'a> {
    tracer: &'a Tracer,
    /// Span-index ranges whose sweep phases describe the workload; the
    /// last is the traced unit's, whose first span is the unit's root.
    phase_ranges: Vec<std::ops::Range<usize>>,
    unit: &'a Unit,
    probes: &'a probes::ProbeTimes,
    arena: (u64, u64),
    overhead_x: f64,
}

fn sweep_layer_metrics(m: &mut Metrics, r: &LayerRun) {
    let spans = r.tracer.spans();
    let mut phase_ms = std::collections::BTreeMap::<&str, f64>::new();
    let mut computes = std::collections::BTreeMap::<&str, u64>::new();
    for range in &r.phase_ranges {
        for s in &spans[range.clone()] {
            if s.provenance == Some("computed") {
                *phase_ms.entry(s.name.as_str()).or_default() += s.ms();
                *computes.entry(s.name.as_str()).or_default() += 1;
            }
        }
    }
    let ms = |p: &str| phase_ms.get(p).copied().unwrap_or(0.0);
    let n = |p: &str| computes.get(p).copied().unwrap_or(0);
    let p = r.probes;
    let u = r.unit;

    m.put("workloads.build_ms", p.build_ms, "ms");

    m.put("profile.program_ms", ms("profile"), "ms");
    m.count("profile.computes", n("profile"));
    m.put(
        "profile.overhead_x",
        ratio(p.profile_program_ms, p.ref_run_ms),
        "x",
    );
    m.put("profile.deps_ms", p.deps_ms, "ms");
    m.count("profile.deps_computes", p.deps_computes);

    m.put("compiler.compile_ms", ms("compile"), "ms");
    m.count("compiler.computes", n("compile"));
    m.put("compiler.select_ms", p.compile_ms - p.deps_ms, "ms");
    m.count("compiler.loops_selected", u.loops.selected);
    m.count("compiler.loops_rejected", u.loops.rejected);

    m.put("interp.decode_ms", p.decode_ms, "ms");
    m.put("interp.ref_run_ms", p.ref_run_ms, "ms");

    let sim = &u.sim;
    m.put("sim.baseline_ms", ms("baseline_sim"), "ms");
    m.put(
        "sim.baseline.ns_per_instr",
        ratio(ms("baseline_sim") * 1e6, sim.baseline_instrs as f64),
        "ns",
    );
    m.put("sim.spt_ms", ms("spt_sim"), "ms");
    m.put(
        "sim.spt.ns_per_instr",
        ratio(ms("spt_sim") * 1e6, sim.spt_instrs as f64),
        "ns",
    );
    for (i, name) in POLICIES.iter().enumerate() {
        m.put(&format!("sim.spt.{name}_ms"), u.policy_ms[i], "ms");
    }
    m.count("sim.total_sim_cycles", sim.cycles);
    m.put(
        "sim.spt.fast_commit_ratio",
        ratio(sim.fast_commits as f64, sim.forks as f64),
        "ratio",
    );
    m.put(
        "sim.spt.useful_ratio",
        ratio(
            sim.spec_checked as f64 - sim.spec_misspec as f64,
            (sim.spec_checked + sim.spec_discarded) as f64,
        ),
        "ratio",
    );
    m.put(
        "sim.superstep_hit_rate",
        ratio(
            sim.superstep_hits as f64,
            (sim.superstep_hits + sim.superstep_misses) as f64,
        ),
        "ratio",
    );
    m.count("mach.cache_accesses", sim.cache_accesses);
    m.count("mach.bp_lookups", sim.bp_lookups);
    m.count("sim.arena.reuse", r.arena.0);
    m.count("sim.arena.fresh", r.arena.1);

    let memo = &u.memo;
    for (phase, hits, misses) in [
        ("profile", memo.profile_hits, memo.profile_misses),
        ("compile", memo.compile_hits, memo.compile_misses),
        ("baseline_sim", memo.baseline_hits, memo.baseline_misses),
        ("spt_sim", memo.spt_hits, memo.spt_misses),
    ] {
        m.count(&format!("spt.memo.{phase}.hits"), hits);
        m.count(&format!("spt.memo.{phase}.misses"), misses);
    }
    let lookups = memo.hits() + memo.misses();
    m.put(
        "spt.fingerprint_ms",
        ratio(p.fingerprint_ms, p.programs as f64) * lookups as f64,
        "ms",
    );
    let root_id = r
        .phase_ranges
        .last()
        .expect("the traced unit's range")
        .start;
    let root = &spans[root_id];
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root_id))
        .map(|s| s.ms())
        .sum();
    m.put(
        "spt.sweep_overhead_ms",
        (root.ms() - children).max(0.0),
        "ms",
    );
    m.put("trace.overhead_x", r.overhead_x, "x");
}

/// Per-layer serve and store metrics from one traced round.
fn serve_layer_metrics(
    m: &mut Metrics,
    tracer: &Tracer,
    warm: &serve::WarmSet,
    warmed: &serve::Warmed,
    mix: &[serve::Kind],
    round: &serve::Round,
    scratch: &Path,
) {
    // Store: read every entry back, then write it into a fresh store.
    let entries = serve::store_entries(&warmed.store);
    let store = spt::DiskStore::open(&warmed.store).ok();
    let mut loaded = Vec::new();
    let (_, load_ms) = tracer.span("probe.store_load", "spt", || {
        if let Some(st) = &store {
            for (kind, key, _) in &entries {
                if let Some(j) = st.load(kind, *key) {
                    loaded.push((kind.clone(), *key, j));
                }
            }
        }
    });
    let fresh = scratch.join("store-save-probe");
    let _ = std::fs::remove_dir_all(&fresh);
    let (_, save_ms) = tracer.span("probe.store_save", "spt", || {
        if let Ok(st) = spt::DiskStore::open(&fresh) {
            for (kind, key, j) in &loaded {
                st.save(kind, *key, j);
            }
        }
    });
    let _ = std::fs::remove_dir_all(&fresh);
    m.put("spt.store.load_ms", load_ms, "ms");
    m.put("spt.store.save_ms", save_ms, "ms");
    let st = |k: &str| {
        round
            .stats
            .get("store")
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    m.count("spt.store.hits", st("hits"));
    m.count("spt.store.misses", st("misses"));
    m.count("spt.store.rejects", st("rejects"));
    m.put(
        "spt.store.bytes",
        entries.iter().map(|e| e.2).sum::<u64>() as f64,
        "B",
    );

    // Wire parsing of the round's requests, as the daemon does it.
    let lines: Vec<String> = mix.iter().map(|&k| warm.request(k).dump()).collect();
    let (_, parse_ms) = tracer.span("probe.parse", "serve", || {
        for l in &lines {
            let doc = Json::parse(l).expect("well-formed request");
            std::hint::black_box(spt_serve::Request::from_json(&doc).is_ok());
        }
    });
    m.put(
        "serve.parse_us",
        parse_ms * 1e3 / lines.len().max(1) as f64,
        "us",
    );
    let rtt = |how: &str| {
        let idx = serve::served_idx(how);
        let v: Vec<f64> = round
            .samples
            .iter()
            .filter(|s| s.served == idx)
            .map(|s| s.ms)
            .collect();
        median(&v)
    };
    m.put("serve.rtt_ms_memo", rtt("memo"), "ms");
    m.put("serve.rtt_ms_store", rtt("store"), "ms");
    let bytes: usize = round.samples.iter().map(|s| s.bytes).sum();
    m.put(
        "serve.bytes_per_req",
        ratio(bytes as f64, round.samples.len() as f64),
        "B",
    );
    let coalesced = serve::served_idx("coalesced");
    m.count(
        "serve.coalesced",
        round
            .samples
            .iter()
            .filter(|s| s.served == coalesced)
            .count() as u64,
    );
}

/// SPT simulations of every bench on two cores under each policy, on a
/// fresh engine so every run simulates (compiles are memo hits on the
/// unit's engine). Returns compute ms per policy.
fn policy_probe(
    tracer: &Tracer,
    unit_sweep: &Sweep,
    suite: &SuiteRefs,
    cfg: &RunConfig,
    checks: &mut Checks,
) -> [f64; 4] {
    let sims = Sweep::new(1);
    let mut ms = [0.0; 4];
    for (p, name) in POLICIES.iter().enumerate() {
        let id = tracer.begin(&format!("probe.policy.{name}"), "sim");
        for (w, reference) in suite.workloads.iter().zip(&suite.rets) {
            let (c, _, _) = unit_sweep.compile(&w.program, &probes::options_for(&cfg.compile, 2));
            let mut mach = batch::policy_machine(&cfg.machine, p);
            mach.cores = 2;
            let (r, stamp) = sims.spt_sim(&c.program, &mach, &spt::spt_annotations(&c), cfg.fuel);
            ms[p] += stamp.ms;
            checks.check(!r.out_of_fuel && r.ret == *reference, || {
                format!("{} under {name}: ret {:?} != {reference:?}", w.name, r.ret)
            });
        }
        tracer.end(id);
    }
    ms
}

/// Traced batch units: alternate untraced and traced units for the run
/// time, keep the first traced unit's spans, and report tracing overhead
/// as the ratio of the two kinds' median wall.
struct TracedUnits {
    first: Unit,
    range: std::ops::Range<usize>,
    arena: (u64, u64),
    overhead_x: f64,
    /// Every unit did exactly the first traced unit's simulated work.
    repeats: bool,
}

fn traced_units(
    seconds: f64,
    tracer: &Arc<Tracer>,
    mut unit: impl FnMut(Option<&Arc<Tracer>>) -> Unit,
) -> TracedUnits {
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first = None;
    while traced.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        plain.push(unit(None));
        let start = tracer.len();
        let a0 = spt::sim::arena_stats();
        let u = unit(Some(tracer));
        let a1 = spt::sim::arena_stats();
        if first.is_none() {
            first = Some((
                start,
                tracer.len(),
                (a1.reuse - a0.reuse, a1.fresh - a0.fresh),
            ));
        }
        traced.push(u);
    }
    let secs = |v: &[Unit]| median(&v.iter().map(|u| u.secs).collect::<Vec<_>>());
    let overhead_x = ratio(secs(&traced), secs(&plain));
    let repeats = plain
        .iter()
        .chain(&traced)
        .all(|u| u.sim == traced[0].sim && u.memo == traced[0].memo);
    let (start, end, arena) = first.expect("one traced unit");
    TracedUnits {
        first: traced.swap_remove(0),
        range: start..end,
        arena,
        overhead_x,
        repeats,
    }
}

/// What one run reports: its metrics, the environment record, sample
/// notes and, when tracing, the span recorder.
struct Report {
    metrics: Metrics,
    env: Json,
    notes: Json,
    tracer: Option<Arc<Tracer>>,
}

fn run(args: &Args, work: &Path, checks: &mut Checks) -> Result<Report, String> {
    let cfg = RunConfig::default();
    let mut m = Metrics::default();
    let mut notes = Json::obj();
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let env;
    match args.workload.as_str() {
        "fig_scale_full" => {
            env = environment(args, "full", 0);
            let order = batch::bench_order(args.seed, spt::workloads::BENCHMARK_NAMES.len());
            let (suite, setup_s) = setup(|| batch::build_suite(Scale::Full, cfg.fuel));
            match &tracer {
                None => {
                    let units = timed(args.seconds, || {
                        batch::fig_scale_unit(&suite, &order, &cfg, None, checks).0
                    });
                    check_repeats(&units, checks);
                    batch_metrics(&mut m, &mut notes, setup_s, &units);
                }
                Some(t) => {
                    traced_fig_scale(&mut m, t, &suite, &order, &cfg, args.seconds, checks);
                    serve_probe(&mut m, t, work, checks)?;
                }
            }
        }
        "sim_sweep" => {
            env = environment(args, "full", 0);
            let ops = batch::sim_sweep_ops(args.seed, spt::workloads::BENCHMARK_NAMES.len());
            let ((suite, compiled), setup_s) = setup(|| {
                let suite = batch::build_suite(Scale::Full, cfg.fuel);
                let compiled = batch::compile_suite(&suite, &cfg, None);
                (suite, compiled)
            });
            match &tracer {
                None => {
                    let units = timed(args.seconds, || {
                        batch::sim_sweep_pass(&suite, &compiled, &ops, &cfg, None, checks)
                    });
                    check_repeats(&units, checks);
                    batch_metrics(&mut m, &mut notes, setup_s, &units);
                }
                Some(t) => {
                    let s0 = t.len();
                    let compiled = batch::compile_suite(&suite, &cfg, Some(t));
                    let setup_range = s0..t.len();
                    let tu = traced_units(args.seconds, t, |tr| {
                        batch::sim_sweep_pass(&suite, &compiled, &ops, &cfg, tr, checks)
                    });
                    checks.check(tu.repeats, || "simulated work differs between units".into());
                    let p = probes::suite_probes(
                        t,
                        Scale::Full,
                        &cfg.compile,
                        &FIG_SCALE_CORES,
                        cfg.fuel,
                    );
                    sweep_layer_metrics(
                        &mut m,
                        &LayerRun {
                            tracer: t,
                            phase_ranges: vec![setup_range, tu.range.clone()],
                            unit: &tu.first,
                            probes: &p,
                            arena: tu.arena,
                            overhead_x: tu.overhead_x,
                        },
                    );
                    serve_probe(&mut m, t, work, checks)?;
                }
            }
        }
        "serve_replay" => {
            env = environment(args, "small", serve::CLIENTS);
            let warm = serve::WarmSet {
                scale: Scale::Small,
                experiments: EXPERIMENT_NAMES.to_vec(),
            };
            let store = work.join("store");
            let ((suite, warmed), setup_s) = setup(|| {
                let suite = batch::build_suite(Scale::Small, cfg.fuel);
                let warmed = serve::warm_up(&store, &warm, checks);
                (suite, warmed)
            });
            let warmed = warmed?;
            let direct = Sweep::new(1);
            serve::check_against_direct(&warm, &warmed, &suite, &direct, checks);
            let mut rng = Rng::fork(args.seed, "mix");
            let min_samples = stats::min_samples_for(0.99);
            let mut rounds = Vec::new();
            let mut first_mix = Vec::new();
            let t0 = Instant::now();
            let traced_span = tracer.as_ref().map(|t| t.begin("serve_replay", "serve"));
            while rounds.is_empty()
                || t0.elapsed().as_secs_f64() < args.seconds
                || rounds
                    .iter()
                    .map(|r: &serve::Round| r.samples.len())
                    .sum::<usize>()
                    < min_samples
            {
                let mix = serve::request_mix(&mut rng, &warm, serve::ROUND_REQUESTS);
                let r = serve::round(&warm, &warmed, &mix, checks)?;
                if first_mix.is_empty() {
                    first_mix = mix;
                }
                rounds.push(r);
            }
            match &tracer {
                None => {
                    let secs: Vec<f64> = rounds.iter().map(|r| r.secs).collect();
                    let lat: Vec<f64> = rounds
                        .iter()
                        .flat_map(|r| r.samples.iter().map(|s| s.ms))
                        .collect();
                    notes = sample_notes(&secs, lat.len());
                    m.put("setup_s", setup_s, "s");
                    m.put("wall_s", median(&secs), "s");
                    let mips: Vec<f64> = rounds
                        .iter()
                        .map(|r| {
                            r.samples.iter().map(|s| s.instrs).sum::<u64>() as f64 / r.secs / 1e6
                        })
                        .collect();
                    m.put("sim_mips", median(&mips), "Minstr/s");
                    let rates: Vec<f64> = rounds
                        .iter()
                        .map(|r| r.samples.len() as f64 / r.secs)
                        .collect();
                    m.put("req_per_s", median(&rates), "1/s");
                    m.put("latency_ms_p50", percentile(&lat, 0.5), "ms");
                    m.put("latency_ms_p99", percentile(&lat, 0.99), "ms");
                }
                Some(t) => {
                    t.end(traced_span.expect("span opened when tracing"));
                    serve_layer_metrics(&mut m, t, &warm, &warmed, &first_mix, &rounds[0], work);
                    // The daemon's compile and simulation layers are idle
                    // during rounds; measure them on the largest piece of
                    // the warm set, `fig_scale` at the serve scale.
                    let order = batch::bench_order(args.seed, suite.workloads.len());
                    traced_fig_scale(&mut m, t, &suite, &order, &cfg, 0.0, checks);
                }
            }
        }
        _ => unreachable!("workload validated by parse_args"),
    }
    if !args.trace {
        // Peak memory is an end-to-end metric of untraced runs only.
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    Ok(Report {
        metrics: m,
        env,
        notes,
        tracer,
    })
}

/// Traced `fig_scale` units (for at least `seconds`), the policy probe
/// on the first traced unit's engine, and the suite probes: the sweep
/// layers' per-layer metrics.
fn traced_fig_scale(
    m: &mut Metrics,
    t: &Arc<Tracer>,
    suite: &SuiteRefs,
    order: &[usize],
    cfg: &RunConfig,
    seconds: f64,
    checks: &mut Checks,
) {
    let mut sweep = None;
    let tu = traced_units(seconds, t, |tr| {
        let (u, sw) = batch::fig_scale_unit(suite, order, cfg, tr, checks);
        if tr.is_some() && sweep.is_none() {
            sweep = Some(sw);
        }
        u
    });
    checks.check(tu.repeats, || "simulated work differs between units".into());
    let mut unit = tu.first;
    let sweep = sweep.expect("at least one traced unit");
    unit.policy_ms = policy_probe(t, &sweep, suite, cfg, checks);
    let p = probes::suite_probes(t, suite.scale, &cfg.compile, &FIG_SCALE_CORES, cfg.fuel);
    sweep_layer_metrics(
        m,
        &LayerRun {
            tracer: t,
            phase_ranges: vec![tu.range.clone()],
            unit: &unit,
            probes: &p,
            arena: tu.arena,
            overhead_x: tu.overhead_x,
        },
    );
}

/// Serve-layer metrics for a batch workload, whose own timed region never
/// touches the daemon: one warm-up and one round of `eval` traffic at
/// test scale.
fn serve_probe(
    m: &mut Metrics,
    t: &Tracer,
    work: &Path,
    checks: &mut Checks,
) -> Result<(), String> {
    let warm = serve::WarmSet {
        scale: Scale::Test,
        experiments: Vec::new(),
    };
    let id = t.begin("probe.serve", "serve");
    let warmed = serve::warm_up(&work.join("probe-store"), &warm, checks)?;
    let mix = serve::request_mix(&mut Rng::new(0), &warm, serve::ROUND_REQUESTS);
    let round = serve::round(&warm, &warmed, &mix, checks)?;
    t.end(id);
    serve_layer_metrics(m, t, &warm, &warmed, &mix, &round, work);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let outcome = run(&args, &work, &mut checks);
    let _ = std::fs::remove_dir_all(&work);
    let Report {
        metrics,
        env,
        notes,
        tracer,
    } = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &checks.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if let Some(t) = &tracer {
        let spans = t.spans();
        let mut by_layer = Json::obj();
        for (layer, ms) in trace::self_time_by_layer(&spans) {
            by_layer = by_layer.with(layer, ms);
        }
        let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let doc = Json::obj()
            .with("env", env.clone())
            .with("self_ms_by_layer", by_layer.clone())
            .with("spans", trace::spans_json(&spans));
        if let Err(e) = std::fs::write(&path, doc.dump()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        println!("{}", Json::obj().with("self_ms_by_layer", by_layer).dump());
    }
    let correct = checks.failed == 0;
    println!(
        "{}",
        Json::obj()
            .with("env", env)
            .with("run_s", t0.elapsed().as_secs_f64())
            .with("samples", notes)
            .with(
                "fail_ratio",
                ratio(checks.failed as f64, checks.attempted as f64)
            )
            .dump()
    );
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", checks.attempted.max(1))
            .with("failed", checks.failed)
            .with("metrics", metrics.json())
            .dump()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
