//! # spt-trace — structured speculation-event tracing
//!
//! Typed, cycle-stamped events emitted by the SPT simulator, the baseline
//! simulator, and the compiler driver, written into a pluggable
//! [`TraceSink`]. The layer is zero-cost when disabled: producers guard
//! event construction behind [`TraceSink::enabled`], and the default
//! [`NullSink`] reports `false`, so untraced runs build no payloads.
//!
//! Determinism contract: every record is a pure function of the program,
//! its inputs, and the machine configuration — cycle stamps, never
//! wall-clock — so traces of the same run are byte-identical regardless
//! of sweep worker count.
//!
//! This crate sits below the simulator and compiler in the dependency
//! graph (it depends only on `spt-sir`), which is why compiler reject
//! reasons travel as strings and the Chrome-trace exporter lives in the
//! `spt` crate where `spt::json` is available.

pub mod event;
pub mod hist;
pub mod sink;

pub use event::{Pipe, StallClass, TraceEvent, TraceRecord};
pub use hist::{fold, Histogram, LoopHistograms, TraceFold};
pub use sink::{jsonl, NullSink, RingBufferSink, StreamSink, TraceSink};
