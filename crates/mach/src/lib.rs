//! # SPT machine model
//!
//! The micro-architectural components shared by the baseline and SPT
//! simulators, parameterized exactly by Table 1 of the paper:
//!
//! * two Itanium2-like in-order cores (6-wide fetch/issue; 12-wide replay),
//! * a shared cache hierarchy (L1 16KB/4-way/64B/1cy, L2 256KB/8-way/64B/5cy,
//!   L3 3MB/12-way/128B/12cy, memory 150cy),
//! * a GAg branch predictor with 1K entries and a 5-cycle mispredict penalty,
//! * SPT overheads: 1-cycle register-file copy, 5-cycle fast commit,
//!   a 1024-entry speculation result buffer,
//! * the default recovery mechanism (selective re-execution with fast
//!   commit) and register dependence checking mode (value-based), each with
//!   the alternatives the paper's "default" wording implies.

pub mod branch;
pub mod cache;
pub mod config;
pub mod scoreboard;

pub use branch::GagPredictor;
pub use cache::{CacheLevel, CacheSim, CacheStats};
pub use config::{CacheParams, MachineConfig, RecoveryKind, RegCheckPolicy};
pub use scoreboard::{ProducerKind, Scoreboard};
