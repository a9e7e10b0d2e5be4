//! Pins numbers quoted in the docs to what the code measures.
//!
//! EXPERIMENTS.md quotes the Figure 8 and 9 "measured" columns at
//! `--scale small` (the goldens under `results/` are `--scale test` and
//! differ slightly) and the core-count table at `--scale test`, so each
//! check reruns the quoted experiment at the quoted scale and compares
//! every number the doc prints.

use spt::{run_experiment, ExperimentOutput, ExperimentRequest, RunConfig, Sweep};
use spt_workloads::Scale;
use std::path::PathBuf;
use std::sync::OnceLock;

fn experiments_md() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parse a percentage cell such as `+19.6%`, `**+12.3%**` or `  8.9%`.
fn percent(cell: &str) -> f64 {
    let t = cell.trim().trim_matches('*').trim_end_matches('%');
    t.parse()
        .unwrap_or_else(|e| panic!("bad percentage {cell:?}: {e}"))
}

/// The rows of the first markdown table after the heading that starts
/// with `heading`, header and rule rows skipped: the first cell (the row
/// name, emphasis stripped), then the other cells.
fn doc_table(doc: &str, heading: &str) -> Vec<(String, Vec<String>)> {
    let mut lines = doc
        .lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip(1)
        .skip_while(|l| !l.starts_with('|'));
    let mut rows = Vec::new();
    for line in lines.by_ref().take_while(|l| l.starts_with('|')).skip(2) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        let name = cells[0].trim().trim_matches('*').to_string();
        rows.push((name, cells[1..].iter().map(|c| c.to_string()).collect()));
    }
    assert!(
        !rows.is_empty(),
        "no table under {heading:?} in EXPERIMENTS.md"
    );
    rows
}

/// Run `experiment` at `scale` on one engine shared by every test here,
/// so the Figure 8 and 9 checks share one suite evaluation.
fn run(experiment: &str, scale: Scale) -> ExperimentOutput {
    static SWEEP: OnceLock<Sweep> = OnceLock::new();
    run_experiment(
        SWEEP.get_or_init(|| Sweep::new(2)),
        &ExperimentRequest::new(experiment, scale),
        &RunConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{experiment} runs: {e}"))
}

#[test]
fn fig8_averages_match_small_scale_run() {
    let doc = doc_table(&experiments_md(), "## Figure 8");
    let out = run("fig8", Scale::Small);
    // `averages: loop speedup +68.7%, fast-commit 70.6%, misspec 1.36%`
    let line = out
        .table
        .lines()
        .find_map(|l| l.strip_prefix("averages: "))
        .expect("averages line");
    let measured: Vec<f64> = line
        .split(", ")
        .map(|item| percent(item.rsplit(' ').next().expect("value")))
        .collect();
    let quoted: Vec<(String, f64)> = doc
        .iter()
        .map(|(n, cells)| (n.clone(), percent(cells.last().expect("measured cell"))))
        .collect();
    let names = [
        "SPT loop speedup",
        "fast-commit ratio",
        "misspeculation ratio",
    ];
    let measured: Vec<(String, f64)> = names.iter().map(|n| n.to_string()).zip(measured).collect();
    assert_eq!(
        quoted, measured,
        "EXPERIMENTS.md Fig. 8 table disagrees with `fig8 --scale small`"
    );
}

#[test]
fn fig_scale_table_matches_test_scale_run() {
    let doc = doc_table(&experiments_md(), "## Core-count scaling");
    let out = run("fig_scale", Scale::Test);
    // Measured rows: `name  8.9%  12.2%  13.9%`, benchmarks then average.
    let measured: Vec<(String, Vec<f64>)> = out
        .table
        .lines()
        .filter_map(|l| {
            let mut cells = l.split_whitespace();
            let name = cells.next()?.to_string();
            let values: Vec<&str> = cells.collect();
            let all_percent = !values.is_empty() && values.iter().all(|v| v.ends_with('%'));
            all_percent.then(|| (name, values.into_iter().map(percent).collect()))
        })
        .collect();
    let quoted: Vec<(String, Vec<f64>)> = doc
        .iter()
        .map(|(n, cells)| (n.clone(), cells.iter().map(|c| percent(c)).collect()))
        .collect();
    assert_eq!(
        quoted, measured,
        "EXPERIMENTS.md core-count table disagrees with `fig_scale --scale test`"
    );
}

#[test]
fn fig9_table_matches_small_scale_run() {
    let doc = doc_table(&experiments_md(), "## Figure 9");
    let out = run("fig9", Scale::Small);

    // Measured rows: `| bench | speedup | ... |`, then the average line.
    let mut measured: Vec<(String, f64)> = out
        .table
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').collect();
            (cells[0].trim().to_string(), percent(cells[1]))
        })
        .collect();
    let avg = out
        .table
        .lines()
        .find_map(|l| l.strip_prefix("average program speedup: "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("average line");
    measured.push(("average".into(), percent(avg)));

    let quoted: Vec<(String, f64)> = doc
        .iter()
        .map(|(n, cells)| (n.clone(), percent(cells.last().expect("measured cell"))))
        .collect();
    assert_eq!(
        quoted, measured,
        "EXPERIMENTS.md Fig. 9 table disagrees with `fig9 --scale small`"
    );
}
