//! The daemon's telemetry plane, built on `spt-metrics`.
//!
//! Two layers share one [`Registry`]:
//!
//! * [`SweepMetrics`] — a [`PhaseObserver`] fed by the engine itself:
//!   per-phase compute time and provenance (computed/memo/store), plus
//!   superstep memo counters. Also usable standalone, attached to a
//!   direct-mode sweep.
//! * [`ServeMetrics`] — request-plane metrics: latency histograms keyed
//!   by op and `served` provenance, connection/coalescing gauges, byte
//!   and error counters, and scrape-time mirrors of the `DiskStore` and
//!   memo-cache counters.
//!
//! Everything here is strictly observational: the instruments are fed
//! copies of data the serving path already had, and nothing flows back.
//! Naming follows DESIGN.md §3g (`spt_` prefix, `_total` counters, unit
//! suffixes, closed label sets only).

use spt::sweep::{PhaseObserver, PhaseStamp};
use spt::Sweep;
use spt_metrics::{Counter, FCounter, FGauge, Family, Gauge, Histogram, Registry};
use std::sync::Arc;

/// The four memoized pipeline phases, as label values.
const PHASES: [&str; 4] = ["profile", "compile", "baseline_sim", "spt_sim"];

/// Engine-side telemetry: an observer the sweep notifies after every
/// memoized phase lookup and every evaluated item.
pub struct SweepMetrics {
    /// `spt_sweep_phase_ms_total{phase}` — wall-clock milliseconds spent
    /// actually computing each phase (hits add nothing).
    phase_ms: Arc<Family<FCounter>>,
    /// `spt_sweep_phase_total{phase,provenance}` — lookups by where the
    /// value came from.
    phase_total: Arc<Family<Counter>>,
    superstep_hits: Arc<Counter>,
    superstep_misses: Arc<Counter>,
    /// `spt_superstep_hit_ratio` — cumulative hits/(hits+misses).
    superstep_ratio: Arc<FGauge>,
}

impl SweepMetrics {
    /// Register the sweep family set on `reg`.
    pub fn register(reg: &Registry) -> Arc<SweepMetrics> {
        let m = SweepMetrics {
            phase_ms: reg.fcounter_vec(
                "spt_sweep_phase_ms_total",
                "Wall-clock milliseconds spent computing each pipeline phase.",
                &["phase"],
            ),
            phase_total: reg.counter_vec(
                "spt_sweep_phase_total",
                "Memoized phase lookups by provenance (computed/memo/store).",
                &["phase", "provenance"],
            ),
            superstep_hits: reg.counter(
                "spt_superstep_hits_total",
                "Basic-block superstep memo probes served from the table.",
            ),
            superstep_misses: reg.counter(
                "spt_superstep_misses_total",
                "Basic-block superstep memo probes that stepped instead.",
            ),
            superstep_ratio: reg.fgauge(
                "spt_superstep_hit_ratio",
                "Cumulative superstep hit fraction, hits/(hits+misses).",
            ),
        };
        // Pre-create the per-phase ms series so a scrape of an idle
        // daemon already shows the full (small, closed) label set.
        for phase in PHASES {
            let _ = m.phase_ms.with(&[phase]);
        }
        Arc::new(m)
    }
}

impl PhaseObserver for SweepMetrics {
    fn phase_done(&self, phase: &'static str, stamp: PhaseStamp) {
        self.phase_total.with(&[phase, stamp.provenance()]).inc();
        if !stamp.hit {
            self.phase_ms.with(&[phase]).add(stamp.ms);
        }
    }

    fn superstep(&self, hits: u64, misses: u64) {
        self.superstep_hits.add(hits);
        self.superstep_misses.add(misses);
        let h = self.superstep_hits.get() as f64;
        let total = h + self.superstep_misses.get() as f64;
        if total > 0.0 {
            self.superstep_ratio.set(h / total);
        }
    }
}

/// Request-plane telemetry plus scrape-time mirrors. One per daemon.
pub struct ServeMetrics {
    registry: Registry,
    sweep: Arc<SweepMetrics>,
    /// `spt_requests_total{op}` — every decoded request line (label
    /// `invalid` for lines that failed to decode).
    requests: Arc<Family<Counter>>,
    /// `spt_responses_total{op,served}` — responses by provenance
    /// (`error` for refusals).
    responses: Arc<Family<Counter>>,
    /// `spt_request_latency_us{op,served}` — wall time from a complete
    /// request line to a serialized response, microseconds.
    latency: Arc<Family<Histogram>>,
    errors: Arc<Counter>,
    timeouts: Arc<Counter>,
    active_connections: Arc<Gauge>,
    inflight_coalescing: Arc<Gauge>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    // Mirrors of counters owned elsewhere, refreshed at render time.
    store_hits: Arc<Counter>,
    store_misses: Arc<Counter>,
    store_rejects: Arc<Counter>,
    store_writes: Arc<Counter>,
    memo_hits: Arc<Family<Counter>>,
    memo_misses: Arc<Family<Counter>>,
    // Simulator-arena mirrors (process-global counters owned by spt-sim).
    arena_reuse: Arc<Counter>,
    arena_fresh: Arc<Counter>,
    arena_retained: Arc<Gauge>,
}

impl ServeMetrics {
    pub fn new() -> Arc<ServeMetrics> {
        let registry = Registry::new();
        let sweep = SweepMetrics::register(&registry);
        let m = ServeMetrics {
            requests: registry.counter_vec(
                "spt_requests_total",
                "Request lines received, by op (invalid = undecodable).",
                &["op"],
            ),
            responses: registry.counter_vec(
                "spt_responses_total",
                "Responses sent, by op and provenance (error = refusal).",
                &["op", "served"],
            ),
            latency: registry.histogram_vec(
                "spt_request_latency_us",
                "Request handling latency in microseconds, by op and provenance.",
                &["op", "served"],
            ),
            errors: registry.counter("spt_errors_total", "Requests answered with a refusal."),
            timeouts: registry.counter(
                "spt_timeouts_total",
                "Connections reaped by the read timeout.",
            ),
            active_connections: registry.gauge(
                "spt_active_connections",
                "Connections currently being served.",
            ),
            inflight_coalescing: registry.gauge(
                "spt_inflight_coalescing",
                "Requests currently waiting on another request's computation.",
            ),
            bytes_read: registry
                .counter("spt_bytes_read_total", "Request bytes read from clients."),
            bytes_written: registry.counter(
                "spt_bytes_written_total",
                "Response bytes written to clients.",
            ),
            store_hits: registry
                .counter("spt_store_hits_total", "DiskStore loads served from disk."),
            store_misses: registry.counter(
                "spt_store_misses_total",
                "DiskStore loads that found nothing usable.",
            ),
            store_rejects: registry.counter(
                "spt_store_rejects_total",
                "DiskStore entries rejected (truncated/garbage/stale schema).",
            ),
            store_writes: registry
                .counter("spt_store_writes_total", "DiskStore entries persisted."),
            memo_hits: registry.counter_vec(
                "spt_memo_hits_total",
                "In-memory memo cache hits, by phase.",
                &["phase"],
            ),
            memo_misses: registry.counter_vec(
                "spt_memo_misses_total",
                "In-memory memo cache misses, by phase.",
                &["phase"],
            ),
            arena_reuse: registry.counter(
                "spt_arena_reuse_total",
                "Simulator-arena component checkouts served from retained state.",
            ),
            arena_fresh: registry.counter(
                "spt_arena_fresh_total",
                "Simulator-arena component checkouts that built fresh state.",
            ),
            arena_retained: registry.gauge(
                "spt_arena_retained_bytes",
                "Approximate bytes of simulator state retained by warm arenas.",
            ),
            registry,
            sweep,
        };
        Arc::new(m)
    }

    /// The engine-side observer to attach via [`Sweep::set_observer`].
    pub fn sweep_observer(&self) -> Arc<SweepMetrics> {
        self.sweep.clone()
    }

    pub fn request(&self, op: &'static str) {
        self.requests.with(&[op]).inc();
    }

    pub fn response(&self, op: &'static str, served: &'static str, latency_us: u64) {
        self.responses.with(&[op, served]).inc();
        self.latency.with(&[op, served]).observe(latency_us);
    }

    pub fn error(&self) {
        self.errors.inc();
    }

    pub fn timeout(&self) {
        self.timeouts.inc();
    }

    pub fn conn_opened(&self) {
        self.active_connections.inc();
    }

    pub fn conn_closed(&self) {
        self.active_connections.dec();
    }

    pub fn coalesce_wait_start(&self) {
        self.inflight_coalescing.inc();
    }

    pub fn coalesce_wait_end(&self) {
        self.inflight_coalescing.dec();
    }

    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.add(n);
    }

    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.add(n);
    }

    /// Refresh the mirrored counters from their owners and render the
    /// whole registry as Prometheus text exposition.
    pub fn render(&self, sweep: &Sweep) -> String {
        let memo = sweep.memo_stats();
        for (phase, hits, misses) in [
            ("profile", memo.profile_hits, memo.profile_misses),
            ("compile", memo.compile_hits, memo.compile_misses),
            (
                "dep_profile",
                memo.dep_profile_hits,
                memo.dep_profile_misses,
            ),
            ("baseline_sim", memo.baseline_hits, memo.baseline_misses),
            ("spt_sim", memo.spt_hits, memo.spt_misses),
        ] {
            self.memo_hits.with(&[phase]).mirror(hits);
            self.memo_misses.with(&[phase]).mirror(misses);
        }
        if let Some(st) = sweep.store() {
            let stats = st.stats();
            self.store_hits.mirror(stats.hits);
            self.store_misses.mirror(stats.misses);
            self.store_rejects.mirror(stats.rejects);
            self.store_writes.mirror(stats.writes);
        }
        let arena = spt::sim::arena_stats();
        self.arena_reuse.mirror(arena.reuse);
        self.arena_fresh.mirror(arena.fresh);
        self.arena_retained.set(arena.retained_bytes as i64);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt::RunConfig;
    use spt_metrics::validate_exposition;
    use spt_workloads::kernels::array_map;

    #[test]
    fn observer_fills_phase_and_superstep_families() {
        let metrics = ServeMetrics::new();
        let mut sweep = Sweep::sequential();
        sweep.set_observer(metrics.sweep_observer());
        let prog = array_map(100, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;
        let _ = sweep.evaluate("array_map", &prog, &cfg);
        let _ = sweep.evaluate("array_map", &prog, &cfg);

        let text = metrics.render(&sweep);
        validate_exposition(&text).expect("valid exposition");
        let scrape = spt_metrics::parse_exposition(&text).unwrap();
        assert_eq!(
            scrape.value(
                "spt_sweep_phase_total",
                &[("phase", "spt_sim"), ("provenance", "computed")]
            ),
            Some(1.0)
        );
        assert_eq!(
            scrape.value(
                "spt_sweep_phase_total",
                &[("phase", "spt_sim"), ("provenance", "memo")]
            ),
            Some(1.0)
        );
        // Mirrored memo counters agree with the engine's own stats.
        let memo = sweep.memo_stats();
        assert_eq!(
            scrape.value("spt_memo_hits_total", &[("phase", "compile")]),
            Some(memo.compile_hits as f64)
        );
        // Superstepping is on by default at this scale, so the ratio
        // gauge is populated (any value in [0,1] is fine).
        let ratio = scrape.get("spt_superstep_hit_ratio").unwrap().value;
        assert!((0.0..=1.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn arena_mirrors_populate_after_sweep_runs() {
        let metrics = ServeMetrics::new();
        let mut sweep = Sweep::sequential();
        sweep.set_observer(metrics.sweep_observer());
        let prog = array_map(100, 8);
        let mut cfg = RunConfig::default();
        cfg.fuel = 5_000_000;
        let _ = sweep.evaluate("array_map", &prog, &cfg);
        // A different machine shape misses the memo, so the simulators
        // run again — this time on warm thread-local arenas.
        cfg.machine.cores = 4;
        let _ = sweep.evaluate("array_map", &prog, &cfg);

        let text = metrics.render(&sweep);
        validate_exposition(&text).expect("valid exposition");
        let scrape = spt_metrics::parse_exposition(&text).unwrap();
        let fresh = scrape.get("spt_arena_fresh_total").unwrap().value;
        let reuse = scrape.get("spt_arena_reuse_total").unwrap().value;
        let retained = scrape.get("spt_arena_retained_bytes").unwrap().value;
        assert!(fresh > 0.0, "first run must build fresh components");
        assert!(reuse > 0.0, "second run must reuse retained components");
        assert!(retained > 0.0, "warm arenas must report retained bytes");
    }

    #[test]
    fn request_plane_metrics_render_and_validate() {
        let metrics = ServeMetrics::new();
        metrics.request("eval");
        metrics.request("eval");
        metrics.request("invalid");
        metrics.response("eval", "computed", 1500);
        metrics.response("eval", "memo", 40);
        metrics.error();
        metrics.conn_opened();
        metrics.add_bytes_read(120);
        metrics.add_bytes_written(4096);

        let text = metrics.render(&Sweep::sequential());
        validate_exposition(&text).expect("valid exposition");
        let scrape = spt_metrics::parse_exposition(&text).unwrap();
        assert_eq!(scrape.sum("spt_requests_total"), 3.0);
        assert_eq!(
            scrape.value(
                "spt_request_latency_us_count",
                &[("op", "eval"), ("served", "computed")]
            ),
            Some(1.0)
        );
        assert_eq!(scrape.get("spt_active_connections").unwrap().value, 1.0);
        assert_eq!(scrape.get("spt_bytes_written_total").unwrap().value, 4096.0);
    }
}
