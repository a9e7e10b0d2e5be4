//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary regenerates one artifact of the paper's evaluation section:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1` | Table 1 — machine configuration |
//! | `fig1` | Figure 1 case study — parser list-free loop |
//! | `fig5` | Figure 5 — software value prediction |
//! | `fig6` | Figure 6 — loop coverage vs body size |
//! | `fig7` | Figure 7 — SPT loop number and coverage |
//! | `fig8` | Figure 8 — SPT loop performance |
//! | `fig9` | Figure 9 — overall program speedup breakdown |
//! | `fig_scale` | core-count scaling sweep |
//! | `ablation_srb` | A1 — speculation result buffer size sweep |
//! | `ablation_recovery` | A2/A3 — recovery and checking policies |
//! | `ablation_compiler` | A4 — compiler feature ablation |
//! | `spt-explain` | per-loop misspeculation diagnosis from a trace |
//!
//! Each one is a thin shell around [`spt::run_experiment`] — the same
//! entry point the `spt-serve` daemon dispatches to — via [`run_figure`].
//!
//! Common flags (parsed strictly: an unknown flag or a malformed value is
//! a hard error, exit code 2):
//!
//! * `--scale test|small|full` (default `small`) — trade time for fidelity;
//! * `--workers N` — sweep worker threads (default: `SPT_WORKERS` env or
//!   available parallelism);
//! * `--json PATH` — also write the run's structured metrics
//!   ([`spt::RunReport`]) as JSON to `PATH` (`-` for stdout);
//! * `--trace PATH` — re-run the binary's workloads with tracing on and
//!   write a Chrome trace-event JSON file (open in Perfetto or
//!   `chrome://tracing`), schema-validated before writing (`-` for stdout);
//! * `--server ADDR` — thin-client mode: send the experiment to a running
//!   `spt-serve` daemon at `ADDR` (TCP `host:port` or a Unix socket path)
//!   instead of computing locally. Stdout is byte-identical to direct
//!   mode except the summary line's timings; `--trace` (a local-only
//!   operation) is rejected and `--workers` is the daemon's to decide.
//!
//! Parallel runs are bit-identical to sequential ones; `--workers` only
//! changes wall-clock time. Traces are cycle-stamped and byte-identical
//! at any worker count.

use spt::service::trace_workloads;
use spt::sweep::default_workers;
use spt::trace::{chrome_trace, validate_chrome_trace, ProgramTrace};
use spt::{ExperimentOutput, ExperimentRequest, Json, RunConfig, RunReport, Sweep, ToJson};
use spt_sir::Program;
use spt_workloads::Scale;
use std::process::exit;

/// The default evaluation configuration used by all figure binaries.
pub fn run_config() -> RunConfig {
    RunConfig::default()
}

/// Format a float as a percent string.
pub fn p(x: f64) -> String {
    spt::report::pcell(x)
}

// ---------------------------------------------------------------------------
// Strict flag parsing
// ---------------------------------------------------------------------------

/// A parsed command line. Unknown flags, missing values, and malformed
/// values are hard errors (exit 2) — a typo never silently falls back to
/// a default.
pub struct Flags {
    seen: Vec<(String, String)>,
}

impl Flags {
    /// Strictly parse argv against an allowlist of flags, each of which
    /// consumes the next argument as its value.
    pub fn parse(valued: &[&str]) -> Flags {
        Self::parse_from(std::env::args().skip(1).collect(), valued)
    }

    fn parse_from(args: Vec<String>, valued: &[&str]) -> Flags {
        let mut seen = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !valued.contains(&flag.as_str()) {
                eprintln!(
                    "unknown flag {flag:?}; known: {}",
                    valued
                        .iter()
                        .map(|f| format!("{f} VALUE"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                exit(2);
            }
            let Some(v) = args.next() else {
                eprintln!("flag {flag} needs a value");
                exit(2);
            };
            seen.push((flag, v));
        }
        Flags { seen }
    }

    /// The last value given for `flag`, if any.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.seen
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// `--scale`, strictly validated; `small` when absent.
    pub fn scale(&self) -> Scale {
        match self.get("--scale") {
            None => Scale::Small,
            Some(s) => spt::service::scale_from_name(s).unwrap_or_else(|| {
                eprintln!("--scale must be test, small, or full (got {s:?})");
                exit(2);
            }),
        }
    }

    /// `--workers`, strictly validated; the `SPT_WORKERS` env /
    /// available-parallelism default when absent.
    pub fn workers(&self) -> usize {
        match self.get("--workers") {
            None => default_workers(),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("--workers must be a positive integer (got {v:?})");
                    exit(2);
                }
            },
        }
    }
}

/// The figure binaries' common command line.
pub struct Args {
    pub scale: Scale,
    pub workers: usize,
    pub json: Option<String>,
    pub trace: Option<String>,
    pub server: Option<String>,
    pub bench: Option<String>,
}

impl Args {
    /// Parse the common figure-binary flags. `--bench` is only accepted
    /// by `spt_explain`.
    pub fn parse_figure(experiment: &str) -> Args {
        let mut valued = vec!["--scale", "--workers", "--json", "--trace", "--server"];
        if experiment == "spt_explain" {
            valued.push("--bench");
        }
        let f = Flags::parse(&valued);
        Args {
            scale: f.scale(),
            workers: f.workers(),
            json: f.get("--json").map(str::to_string),
            trace: f.get("--trace").map(str::to_string),
            server: f.get("--server").map(str::to_string),
            bench: f.get("--bench").map(str::to_string),
        }
    }
}

// ---------------------------------------------------------------------------
// The one driver every figure binary calls
// ---------------------------------------------------------------------------

/// Run the named experiment as a figure binary: parse flags, compute
/// locally (or fetch from a daemon with `--server`), print the table,
/// the summary, the optional `--json` report and `--trace` capture.
pub fn run_figure(experiment: &str) {
    let args = Args::parse_figure(experiment);
    let cfg = run_config();
    let req = ExperimentRequest {
        name: experiment.to_string(),
        scale: args.scale,
        bench: args.bench.clone(),
    };

    if let Some(addr) = &args.server {
        if args.trace.is_some() {
            eprintln!("--trace is a local operation; drop --server to capture a trace");
            exit(2);
        }
        let (served, out) = fetch_experiment(addr, &req).unwrap_or_else(|e| {
            eprintln!("spt-bench: {e}");
            exit(1);
        });
        print!("{}", out.table);
        finish_to(&out.report, args.json.as_deref());
        // Provenance goes to stderr so stdout stays diffable against
        // direct mode.
        eprintln!("[spt-serve] served={served} addr={addr}");
        return;
    }

    let sweep = Sweep::new(args.workers);
    let out = spt::run_experiment(&sweep, &req, &cfg).unwrap_or_else(|e| {
        eprintln!("spt-bench: {e}");
        exit(1);
    });
    print!("{}", out.table);
    finish_to(&out.report, args.json.as_deref());
    if args.trace.is_some() {
        let programs = trace_workloads(&req);
        write_trace_to(&sweep, &programs, &cfg, args.trace.as_deref());
    }
}

/// Send one experiment request to a daemon and decode the reply.
pub fn fetch_experiment(
    addr: &str,
    req: &ExperimentRequest,
) -> Result<(String, ExperimentOutput), String> {
    let mut body = Json::obj().with("op", "experiment");
    if let Json::Object(pairs) = req.to_json() {
        for (k, v) in pairs {
            body = body.with(&k, v);
        }
    }
    let resp = spt_serve::client::request(addr, &body)?;
    let out = ExperimentOutput::from_json(&resp.payload)?;
    Ok((resp.served, out))
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

/// Print the run's one-line metrics summary and, if a `--json` path was
/// given, write the full structured report there (`-` writes to stdout).
pub fn finish_to(report: &RunReport, json_path: Option<&str>) {
    println!("{}", report.summary());
    if let Some(path) = json_path {
        let body = report.to_json().pretty();
        if path == "-" {
            print!("{body}");
        } else if let Err(e) = std::fs::write(path, &body) {
            eprintln!("failed to write {path}: {e}");
            exit(1);
        } else {
            println!("wrote metrics to {path}");
        }
    }
}

/// Re-run `programs` with tracing on, export a Chrome trace-event JSON
/// document, validate it against the trace schema, and write it to
/// `path` (`-` for stdout). No-op without a path.
pub fn write_trace_to(
    sweep: &Sweep,
    programs: &[(String, Program)],
    cfg: &RunConfig,
    path: Option<&str>,
) {
    let Some(path) = path else {
        return;
    };
    let pairs = sweep.map(programs, |_, (name, prog)| {
        sweep.trace_program(name, prog, cfg)
    });
    let traces: Vec<ProgramTrace> = pairs.into_iter().map(|(r, _)| r.trace).collect();
    let body = chrome_trace(&traces).pretty();
    let events = match validate_chrome_trace(&body) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("exported trace failed schema validation: {e}");
            exit(1);
        }
    };
    if path == "-" {
        print!("{body}");
    } else if let Err(e) = std::fs::write(path, &body) {
        eprintln!("failed to write {path}: {e}");
        exit(1);
    } else {
        println!(
            "wrote trace ({events} events, {} workloads) to {path}",
            traces.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str], valued: &[&str]) -> Flags {
        Flags::parse_from(args.iter().map(|s| s.to_string()).collect(), valued)
    }

    #[test]
    fn last_value_wins_and_lookup_works() {
        let f = flags(
            &["--scale", "test", "--json", "-", "--scale", "full"],
            &["--scale", "--json"],
        );
        assert_eq!(f.get("--scale"), Some("full"));
        assert_eq!(f.get("--json"), Some("-"));
        assert_eq!(f.get("--workers"), None);
        assert_eq!(f.scale(), Scale::Full);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let f = flags(&[], &["--scale", "--workers"]);
        assert_eq!(f.scale(), Scale::Small);
        assert_eq!(f.workers(), default_workers());
        let g = flags(&["--workers", "7"], &["--workers"]);
        assert_eq!(g.workers(), 7);
    }
}
