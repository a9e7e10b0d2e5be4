//! Pins numbers quoted in the docs to what the code measures.
//!
//! EXPERIMENTS.md quotes its "measured" columns at `--scale small` (the
//! goldens under `results/` are `--scale test` and differ slightly), so
//! each check reruns the quoted experiment at that scale and compares
//! every row the doc prints.

use spt::{run_experiment, ExperimentRequest, RunConfig, Sweep};
use spt_workloads::Scale;
use std::path::PathBuf;

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

/// The `(first cell, last cell)` rows of the first markdown table after
/// the heading that starts with `heading`, header and rule rows skipped.
fn doc_table(doc: &str, heading: &str) -> Vec<(String, String)> {
    let mut lines = doc
        .lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip(1)
        .skip_while(|l| !l.starts_with('|'));
    let mut rows = Vec::new();
    for line in lines.by_ref().take_while(|l| l.starts_with('|')).skip(2) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
        let name = cells[0].trim().trim_matches('*').to_string();
        rows.push((name, cells[cells.len() - 1].to_string()));
    }
    assert!(
        !rows.is_empty(),
        "no table under {heading:?} in EXPERIMENTS.md"
    );
    rows
}

#[test]
fn fig9_table_matches_small_scale_run() {
    let doc = doc_table(&experiments_md(), "## Figure 9");
    let out = run_experiment(
        &Sweep::new(2),
        &ExperimentRequest::new("fig9", Scale::Small),
        &RunConfig::default(),
    )
    .expect("fig9 runs");

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

    let quoted: Vec<(String, f64)> = doc.iter().map(|(n, m)| (n.clone(), percent(m))).collect();
    assert_eq!(
        quoted, measured,
        "EXPERIMENTS.md Fig. 9 table disagrees with `fig9 --scale small`"
    );
}
