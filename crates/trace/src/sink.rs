//! Event sinks: where trace records go.
//!
//! The contract for emitters (simulators, compiler driver) is:
//!
//! * guard any allocation needed to *build* an event behind
//!   [`TraceSink::enabled`] — with a [`NullSink`] tracing must cost nothing
//!   beyond one predictable branch per candidate site;
//! * emit events in program order; stamp them with the main-pipeline cycle
//!   (never wall-clock), so a trace is a deterministic function of the
//!   simulated run.

use crate::event::{TraceEvent, TraceRecord};
use std::fmt::Write as _;
use std::io::Write;

/// A destination for trace records.
pub trait TraceSink {
    /// False when emission is a no-op; emitters use this to skip building
    /// event payloads entirely.
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, cycle: u64, ev: TraceEvent);
}

/// Discards everything; `enabled()` is false so emitters skip event
/// construction. This is what the untraced simulator entry points use —
/// their timing and results are bit-identical to the pre-tracing code.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _cycle: u64, _ev: TraceEvent) {}
}

/// In-memory sink keeping every record in emission order (bounded only by
/// memory).
#[derive(Clone, Debug, Default)]
pub struct RingBufferSink {
    buf: Vec<TraceRecord>,
}

impl RingBufferSink {
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Records held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Consume the sink, returning its records oldest-first.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.buf
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, cycle: u64, ev: TraceEvent) {
        self.buf.push(TraceRecord { cycle, ev });
    }
}

/// Streaming sink: one compact JSON object per line (JSONL), written as
/// events arrive so arbitrarily long runs never buffer the whole trace.
/// The line format is the raw-event schema (`{"cycle":..,"ev":..,...}`);
/// the Chrome-trace exporter is a separate, whole-trace transformation.
pub struct StreamSink<W: Write> {
    out: W,
    lines: u64,
}

impl<W: Write> StreamSink<W> {
    pub fn new(out: W) -> Self {
        StreamSink { out, lines: 0 }
    }

    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and recover the writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> TraceSink for StreamSink<W> {
    fn emit(&mut self, cycle: u64, ev: TraceEvent) {
        let rec = TraceRecord { cycle, ev };
        let _ = writeln!(self.out, "{}", jsonl(&rec));
        self.lines += 1;
    }
}

/// Serialize one record as a single compact JSON line. Deterministic:
/// fixed key order, no whitespace, shortest-roundtrip floats.
pub fn jsonl(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{{\"cycle\":{},\"ev\":\"{}\"", rec.cycle, rec.ev.name());
    let kv_u = |s: &mut String, k: &str, v: u64| {
        let _ = write!(s, ",\"{k}\":{v}");
    };
    let kv_f = |s: &mut String, k: &str, v: f64| {
        let _ = write!(s, ",\"{k}\":{v:?}");
    };
    let kv_loop = |s: &mut String, l: &Option<usize>| {
        match l {
            Some(i) => {
                let _ = write!(s, ",\"loop\":{i}");
            }
            None => s.push_str(",\"loop\":null"),
        };
    };
    match &rec.ev {
        TraceEvent::Fork {
            loop_id,
            func,
            start_block,
        } => {
            kv_loop(&mut s, loop_id);
            kv_u(&mut s, "func", func.0 as u64);
            kv_u(&mut s, "start_block", start_block.0 as u64);
        }
        TraceEvent::RingFork {
            loop_id,
            core,
            func,
            start_block,
        } => {
            kv_loop(&mut s, loop_id);
            kv_u(&mut s, "core", *core as u64);
            kv_u(&mut s, "func", func.0 as u64);
            kv_u(&mut s, "start_block", start_block.0 as u64);
        }
        TraceEvent::ForkIgnored { func, start_block } => {
            kv_u(&mut s, "func", func.0 as u64);
            kv_u(&mut s, "start_block", start_block.0 as u64);
        }
        TraceEvent::FastCommit {
            loop_id,
            fork_cycle,
            srb_len,
        } => {
            kv_loop(&mut s, loop_id);
            kv_u(&mut s, "fork_cycle", *fork_cycle);
            kv_u(&mut s, "srb_len", *srb_len as u64);
        }
        TraceEvent::Replay {
            loop_id,
            fork_cycle,
            check_cycle,
            srb_len,
            committed,
            reexecuted,
            reg_violations,
            mem_violations,
        } => {
            kv_loop(&mut s, loop_id);
            kv_u(&mut s, "fork_cycle", *fork_cycle);
            kv_u(&mut s, "check_cycle", *check_cycle);
            kv_u(&mut s, "srb_len", *srb_len as u64);
            kv_u(&mut s, "committed", *committed as u64);
            kv_u(&mut s, "reexecuted", *reexecuted as u64);
            s.push_str(",\"reg_violations\":[");
            for (i, r) in reg_violations.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{r}");
            }
            s.push_str("],\"mem_violations\":[");
            for (i, a) in mem_violations.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{a}");
            }
            s.push(']');
        }
        TraceEvent::Kill {
            loop_id,
            fork_cycle,
            srb_len,
        }
        | TraceEvent::Squash {
            loop_id,
            fork_cycle,
            srb_len,
        } => {
            kv_loop(&mut s, loop_id);
            kv_u(&mut s, "fork_cycle", *fork_cycle);
            kv_u(&mut s, "srb_len", *srb_len as u64);
        }
        TraceEvent::DivergenceKill { loop_id, committed } => {
            kv_loop(&mut s, loop_id);
            kv_u(&mut s, "committed", *committed as u64);
        }
        TraceEvent::SrbHighWater { occupancy } => {
            kv_u(&mut s, "occupancy", *occupancy as u64);
        }
        TraceEvent::StallTransition { pipe, kind } => {
            let _ = write!(
                s,
                ",\"pipe\":\"{}\",\"kind\":\"{}\"",
                match pipe {
                    crate::event::Pipe::Main => "main",
                    crate::event::Pipe::Spec => "spec",
                },
                kind.name()
            );
        }
        TraceEvent::PartitionChosen {
            func,
            loop_id,
            cost,
            est_speedup,
            pre_size,
        } => {
            kv_u(&mut s, "func", func.0 as u64);
            kv_u(&mut s, "loop_id", *loop_id as u64);
            kv_f(&mut s, "cost", *cost);
            kv_f(&mut s, "est_speedup", *est_speedup);
            kv_u(&mut s, "pre_size", *pre_size as u64);
        }
        TraceEvent::LoopSelected {
            func,
            loop_id,
            est_speedup,
            coverage,
            unroll,
        } => {
            kv_u(&mut s, "func", func.0 as u64);
            kv_u(&mut s, "loop_id", *loop_id as u64);
            kv_f(&mut s, "est_speedup", *est_speedup);
            kv_f(&mut s, "coverage", *coverage);
            kv_u(&mut s, "unroll", *unroll as u64);
        }
        TraceEvent::LoopRejected {
            func,
            loop_id,
            reason,
        } => {
            kv_u(&mut s, "func", func.0 as u64);
            kv_u(&mut s, "loop_id", *loop_id as u64);
            s.push_str(",\"reason\":\"");
            for c in reason.chars() {
                match c {
                    '"' => s.push_str("\\\""),
                    '\\' => s.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(s, "\\u{:04x}", c as u32);
                    }
                    c => s.push(c),
                }
            }
            s.push('"');
        }
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::{BlockId, FuncId};

    fn fork(cycle: u64) -> (u64, TraceEvent) {
        (
            cycle,
            TraceEvent::Fork {
                loop_id: Some(0),
                func: FuncId(0),
                start_block: BlockId(1),
            },
        )
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        let (c, e) = fork(3);
        s.emit(c, e); // no-op
    }

    #[test]
    fn stream_sink_writes_one_line_per_event() {
        let mut s = StreamSink::new(Vec::<u8>::new());
        let (c, e) = fork(7);
        s.emit(c, e);
        s.emit(9, TraceEvent::SrbHighWater { occupancy: 12 });
        assert_eq!(s.lines(), 2);
        let out = String::from_utf8(s.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"cycle\":7,\"ev\":\"fork\",\"loop\":0,\"func\":0,\"start_block\":1}"
        );
        assert_eq!(
            lines[1],
            "{\"cycle\":9,\"ev\":\"srb_high_water\",\"occupancy\":12}"
        );
    }

    #[test]
    fn jsonl_escapes_reject_reasons() {
        let rec = TraceRecord {
            cycle: 0,
            ev: TraceEvent::LoopRejected {
                func: FuncId(1),
                loop_id: 2,
                reason: "a\"b\\c".into(),
            },
        };
        assert!(jsonl(&rec).contains("\"reason\":\"a\\\"b\\\\c\""));
    }

    #[test]
    fn jsonl_replay_lists_are_rendered() {
        let rec = TraceRecord {
            cycle: 10,
            ev: TraceEvent::Replay {
                loop_id: None,
                fork_cycle: 1,
                check_cycle: 5,
                srb_len: 4,
                committed: 3,
                reexecuted: 1,
                reg_violations: vec![2, 7],
                mem_violations: vec![40],
            },
        };
        let line = jsonl(&rec);
        assert!(line.contains("\"loop\":null"));
        assert!(line.contains("\"reg_violations\":[2,7]"));
        assert!(line.contains("\"mem_violations\":[40]"));
    }
}
