//! The `serve_replay` workload: closed-loop clients against an in-process
//! `spt-serve` daemon restarted on a warm store every round.
//!
//! Every request goes through `spt_serve::client::request_with_timeout`
//! on a connection of its own, the way the repository's own callers (the
//! `spt-bench` binaries' `--server` mode and `spt-serve --connect`) talk
//! to the daemon.

use crate::batch::SuiteRefs;
use crate::stats::Rng;
use crate::Checks;
use spt::workloads::{Scale, BENCHMARK_NAMES};
use spt::{run_experiment, ExperimentOutput, ExperimentRequest, Json, RunConfig, Sweep, ToJson};
use spt_serve::{client, Request, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Concurrent closed-loop clients (one per host CPU the workload targets).
pub const CLIENTS: usize = 2;

/// Requests per round; each round restarts the daemon on the warm store.
pub const ROUND_REQUESTS: usize = 250;

/// Client-side bound on one request/response exchange; a slower answer
/// counts as a failed operation.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One request of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Index into the warm set's experiment list.
    Experiment(usize),
    /// Index into `BENCHMARK_NAMES`.
    Eval(usize),
}

/// What the daemon is warmed with and the mix draws from.
pub struct WarmSet {
    pub scale: Scale,
    pub experiments: Vec<&'static str>,
}

impl WarmSet {
    /// Every request key of the warm set, experiments first.
    pub fn kinds(&self) -> Vec<Kind> {
        let exps = (0..self.experiments.len()).map(Kind::Experiment);
        exps.chain((0..BENCHMARK_NAMES.len()).map(Kind::Eval))
            .collect()
    }

    pub fn request(&self, k: Kind) -> Json {
        match k {
            Kind::Experiment(i) => {
                Request::Experiment(ExperimentRequest::new(self.experiments[i], self.scale))
                    .to_json()
            }
            Kind::Eval(b) => Request::Eval {
                bench: BENCHMARK_NAMES[b].to_string(),
                scale: self.scale,
                fuel: None,
            }
            .to_json(),
        }
    }

    /// Slot of a request in per-key tables.
    fn slot(&self, k: Kind) -> usize {
        match k {
            Kind::Experiment(i) => i,
            Kind::Eval(b) => self.experiments.len() + b,
        }
    }
}

/// The seeded request mix of one round: each draw picks one of the warm
/// set's keys with equal weight. The repository records no production
/// traffic, so the weights are an assumption, not a measured mix.
pub fn request_mix(rng: &mut Rng, warm: &WarmSet, n: usize) -> Vec<Kind> {
    let kinds = warm.kinds();
    (0..n).map(|_| kinds[rng.below(kinds.len())]).collect()
}

/// A warm store plus the reference payload of every request key, as the
/// daemon first computed it.
pub struct Warmed {
    pub store: PathBuf,
    /// Dumped payload per [`WarmSet::slot`].
    pub payloads: Vec<String>,
    /// Simulated instructions (baseline + SPT) carried by each payload.
    pub instrs: Vec<u64>,
}

fn start(store: &Path) -> std::io::Result<Server> {
    Server::start(&ServeConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: Some(store.to_path_buf()),
        workers: 1,
        read_timeout: TIMEOUT,
        metrics: None,
    })
}

/// Start a daemon over a fresh store, send it every request key of
/// `warm` once, and shut it down (flushing the store).
pub fn warm_up(store: &Path, warm: &WarmSet, checks: &mut Checks) -> Result<Warmed, String> {
    let _ = std::fs::remove_dir_all(store);
    let server = start(store).map_err(|e| format!("start daemon: {e}"))?;
    let mut payloads = Vec::new();
    let mut instrs = Vec::new();
    for k in warm.kinds() {
        let (served, payload) =
            match client::request_with_timeout(server.addr(), &warm.request(k), TIMEOUT) {
                Ok(r) => (r.served, r.payload),
                Err(e) => {
                    checks.check(false, || format!("warm-up {k:?} refused: {e}"));
                    (String::new(), Json::Null)
                }
            };
        checks.check(served == "computed", || {
            format!("warm-up {k:?} served={served}")
        });
        instrs.push(payload_instrs(&payload));
        payloads.push(payload.dump());
    }
    server.shutdown();
    Ok(Warmed {
        store: store.to_path_buf(),
        payloads,
        instrs,
    })
}

/// Simulated instructions in an `eval` payload (0 for other payloads).
fn payload_instrs(doc: &Json) -> u64 {
    let get = |side: &str| {
        doc.get("outcome")
            .and_then(|o| o.get(side))
            .and_then(|s| s.get("instrs"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    get("baseline") + get("spt")
}

/// The correctness gate on the warm-up payloads: every experiment's table
/// equals direct `run_experiment` output byte for byte and its report's
/// timing-free projection matches; every eval's outcome matches a direct
/// evaluation, and its `ret`s equal the reference interpreter's.
pub fn check_against_direct(
    warm: &WarmSet,
    warmed: &Warmed,
    suite: &SuiteRefs,
    sweep: &Sweep,
    checks: &mut Checks,
) {
    let cfg = RunConfig::default();
    for k in warm.kinds() {
        let slot = warm.slot(k);
        let served = Json::parse(&warmed.payloads[slot]);
        match k {
            Kind::Experiment(i) => {
                let req = ExperimentRequest::new(warm.experiments[i], warm.scale);
                let direct = run_experiment(sweep, &req, &cfg);
                let got = served
                    .ok()
                    .and_then(|j| ExperimentOutput::from_json(&j).ok());
                let ok = match (&direct, &got) {
                    (Ok(d), Some(g)) => {
                        d.table == g.table
                            && d.report.deterministic_json().dump()
                                == g.report.deterministic_json().dump()
                    }
                    _ => false,
                };
                checks.check(ok, || {
                    format!("served {} differs from direct run", req.name)
                });
            }
            Kind::Eval(b) => {
                let w = &suite.workloads[b];
                let (outcome, _) = sweep.evaluate(w.name, &w.program, &cfg);
                let got = served.ok();
                let outcome_json = got.as_ref().and_then(|j| j.get("outcome"));
                let ret = |side: &str| {
                    outcome_json
                        .and_then(|o| o.get(side))
                        .and_then(|s| s.get("ret"))
                        .and_then(Json::as_i64)
                };
                let reference = suite.rets[b];
                let ok = outcome_json.map(Json::dump) == Some(outcome.to_json().dump())
                    && reference.is_some()
                    && ret("baseline") == reference
                    && ret("spt") == reference;
                checks.check(ok, || {
                    format!("served eval {} differs from direct run", w.name)
                });
            }
        }
    }
}

/// One response as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ms: f64,
    /// Index into `spt_serve::Served::ALL`; `None` for a failed request.
    pub served: Option<usize>,
    /// Bytes of the dumped payload.
    pub bytes: usize,
    pub instrs: u64,
}

/// One client's samples plus descriptions of its failed requests.
type ClientLog = (Vec<Sample>, Vec<String>);

/// One round's outcome.
pub struct Round {
    pub secs: f64,
    pub samples: Vec<Sample>,
    /// The daemon's own `stats` payload at the end of the round.
    pub stats: Json,
}

/// Index of a `served` label in `spt_serve::Served::ALL`.
pub fn served_idx(name: &str) -> Option<usize> {
    spt_serve::Served::ALL.iter().position(|s| s.name() == name)
}

/// Restart the daemon on the warm store and drive `mix` through
/// [`CLIENTS`] closed-loop clients (request `i` goes to client
/// `i % CLIENTS`). Every response must carry the warm-up payload. The
/// round's time runs from the daemon being up to the last response;
/// daemon start and shutdown stay outside it.
pub fn round(
    warm: &WarmSet,
    warmed: &Warmed,
    mix: &[Kind],
    checks: &mut Checks,
) -> Result<Round, String> {
    let server = start(&warmed.store).map_err(|e| format!("restart daemon: {e}"))?;
    let addr = server.addr().to_string();
    let bodies: Vec<Json> = mix.iter().map(|&k| warm.request(k)).collect();
    let t0 = Instant::now();
    let per_client: Vec<std::thread::Result<ClientLog>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, bodies) = (&addr, &bodies);
                s.spawn(move || -> ClientLog {
                    let mut samples = Vec::new();
                    let mut failures = Vec::new();
                    for i in (c..mix.len()).step_by(CLIENTS) {
                        let k = mix[i];
                        let slot = warm.slot(k);
                        let t = Instant::now();
                        let res = client::request_with_timeout(addr, &bodies[i], TIMEOUT);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let (served, bytes) = match res {
                            Ok(r) => {
                                let payload = r.payload.dump();
                                if payload == warmed.payloads[slot] {
                                    (served_idx(&r.served), payload.len())
                                } else {
                                    failures.push(format!("{k:?}: wrong payload"));
                                    (None, payload.len())
                                }
                            }
                            Err(e) => {
                                failures.push(format!("{k:?}: {e}"));
                                (None, 0)
                            }
                        };
                        samples.push(Sample {
                            ms,
                            served,
                            bytes,
                            instrs: warmed.instrs[slot],
                        });
                    }
                    (samples, failures)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let stats = client::request(&addr, &Request::Stats.to_json())
        .map(|r| r.payload)
        .unwrap_or(Json::Null);
    server.shutdown();

    let mut samples = Vec::with_capacity(mix.len());
    for r in per_client {
        let Ok((s, failures)) = r else {
            return Err("client thread panicked".into());
        };
        for f in &failures {
            checks.check(false, || f.clone());
        }
        // Every sample is an attempted request; the failed ones were
        // counted just above.
        checks.pass(s.len().saturating_sub(failures.len()) as u64);
        samples.extend(s);
    }
    Ok(Round {
        secs,
        samples,
        stats,
    })
}

/// Store entry files of a store directory as `(kind, key, bytes)`.
pub fn store_entries(dir: &Path) -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let Ok(rd) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in rd.flatten() {
        let name = e.file_name().to_string_lossy().to_string();
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        let Some((kind, key)) = stem.rsplit_once('-') else {
            continue;
        };
        if let Ok(key) = u64::from_str_radix(key, 16) {
            let bytes = e.metadata().map_or(0, |m| m.len());
            out.push((kind.to_string(), key, bytes));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_seed_deterministic() {
        let warm = WarmSet {
            scale: Scale::Small,
            experiments: vec!["fig8", "fig_scale"],
        };
        let a = request_mix(&mut Rng::fork(4, "mix"), &warm, 500);
        assert_eq!(a, request_mix(&mut Rng::fork(4, "mix"), &warm, 500));
        assert_ne!(a, request_mix(&mut Rng::fork(5, "mix"), &warm, 500));
        for k in warm.kinds() {
            assert!(a.contains(&k), "{k:?} never drawn");
        }
        let evals_only = WarmSet {
            scale: Scale::Test,
            experiments: vec![],
        };
        let b = request_mix(&mut Rng::fork(4, "mix"), &evals_only, 200);
        assert!(b.iter().all(|k| matches!(k, Kind::Eval(_))));
    }
}
