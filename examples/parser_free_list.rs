//! The Figure 1 case study: speculative parallelization of parser's
//! linked-list free loop.
//!
//! The paper reports: >40% loop speedup, only ~5% of speculatively executed
//! instructions invalid, ~20% of speculative threads perfectly parallel.
//! This example runs our reproduction of the loop end to end and prints the
//! same three numbers.
//!
//! ```sh
//! cargo run --release -p spt --example parser_free_list
//! ```

use spt::report::{gain, pct};
use spt::{RunConfig, Sweep};

fn main() {
    let cfg = RunConfig::default();
    let cs = Sweep::auto().fig1_case_study(2000, &cfg).0;

    println!("Figure 1 case study: parser list-free loop (2000 nodes)");
    println!("=======================================================\n");
    println!("semantics preserved:       {}", cs.outcome.semantics_ok());
    println!(
        "loop speedup:              {}   (paper: >40%)",
        gain(cs.loop_speedup)
    );
    println!(
        "invalid speculative work:  {}   (paper: ~5%)",
        pct(cs.invalid_ratio)
    );
    println!(
        "perfectly parallel threads:{}   (paper: ~20%, value-based checking raises it)",
        pct(cs.perfect_ratio)
    );
    println!();
    println!(
        "forks {}, fast commits {}, replays {}, kills {}",
        cs.outcome.spt.forks,
        cs.outcome.spt.fast_commits,
        cs.outcome.spt.replays,
        cs.outcome.spt.kills
    );
    println!(
        "program: baseline {} cycles, SPT {} cycles ({})",
        cs.outcome.baseline.cycles,
        cs.outcome.spt.cycles,
        gain(cs.outcome.speedup())
    );

    // Show the transformed loop body, Figure 1(b) style.
    if let Some(info) = cs.outcome.compiled.loops.first() {
        println!("\nTransformed loop body (SPT_FORK marks the partition):");
        let body = cs
            .outcome
            .compiled
            .program
            .func(info.func)
            .block(info.body_block);
        for inst in &body.insts {
            println!("    {inst}");
        }
        println!("    {}", body.term);
    }
}
