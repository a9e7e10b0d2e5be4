//! # SPT profiling
//!
//! The profiling substrate of the SPT compiler's cost-driven framework
//! (§4.1): the compiler's misspeculation-cost model is built on a
//! control-flow graph annotated with *reach probabilities* and a
//! data-dependence graph annotated with *dependence probabilities*, plus
//! the value profiles that drive software value prediction (§4.4).
//!
//! Three collectors, all driven by interpreter events:
//!
//! * [`ProgramProfile`] — whole-program: dynamic loop statistics
//!   (invocations, trip counts, dynamic body sizes, coverage — Figure 6's
//!   raw data), guard pass rates and branch taken rates (reach
//!   probabilities).
//! * [`DepProfile`] — per selected loop: cross-iteration register and
//!   memory dependence occurrences between static statements, with
//!   value-changed counts (dependence probabilities; feeds the cost graph).
//! * value patterns per register (stride / last-value predictability;
//!   feeds software value prediction).

pub mod context;
pub mod deps;
#[cfg(test)]
mod reference;
pub mod stats;

pub use context::{LoopContextTracker, LoopKey};
pub use deps::{profile_loops, DepCount, DepProfile, LoopDeps, ValuePattern};
pub use stats::{profile_program, GuardCount, LoopDyn, ProgramProfile};
