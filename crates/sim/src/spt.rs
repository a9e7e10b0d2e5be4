//! The SPT speculation-fabric simulator (§3 of the paper, generalized to
//! N cores).
//!
//! Execution model: core 0 (the main pipeline) always executes the main
//! program thread over architectural memory. When it executes `spt_fork`,
//! the register context is copied (1 cycle minimum) and a speculative
//! pipeline begins executing real code at the start-point over a private
//! speculative store buffer. There is no register communication or
//! synchronization between the threads; all speculative results go to the
//! thread's speculation result buffer (SRB) in program order, and a
//! speculative pipeline stalls when its SRB is full.
//!
//! At N=2 this is exactly the paper's dual-pipeline machine. With more
//! cores the fabric forms a ring of successive iterations (in the style of
//! Prophet's successor cores): when the *youngest* speculative thread
//! itself executes `spt_fork` and a ring core is free, the next iteration
//! starts there speculatively; a thread that reaches its successor's
//! start-point parks rather than re-executing the successor's work. A
//! speculative fork with no free core is dropped silently, exactly as the
//! two-core machine drops it.
//!
//! When the main thread arrives at the *oldest* thread's start-point, the
//! dependence checkers run:
//!
//! * register check — live-in registers read by the speculative thread vs.
//!   registers the main thread modified after the fork point (mark-based),
//!   or whose *values* changed between fork-point and start-point
//!   (value-based, the Table 1 default);
//! * memory check — the load address buffer (LAB) vs. main-thread store
//!   addresses issued before the start-point.
//!
//! What happens next is the configured [`RecoveryPolicy`]: under the
//! default (selective re-execution with fast commit), no violation →
//! *fast commit* — the speculative register context is copied back (5
//! cycles minimum), outstanding SSB stores are written back (and checked
//! against downstream threads' LABs), and the main thread resumes where
//! the speculative thread stopped; any violation → *replay* — the main
//! pipeline walks the SRB in program order at replay width (12),
//! committing correct results directly and re-executing only misspeculated
//! instructions. A replay or squash invalidates every downstream ring
//! thread (they forked from a context the recovery just rewrote).

use crate::arena::{self, SimArena, SpecBufs};
use crate::engine::{CycleBreakdown, Engine};
use crate::metrics::{LoopAnnotations, LoopCycleTracker, PerCoreStats, PerLoopStats};
use crate::pipeline::PipelineCore;
use crate::recovery::policy_for;
use crate::specset::{AddrList, AddrMembers, DepthRegSet, RegSet};
use crate::ssb::{SpecMem, Ssb};
use spt_interp::{Cursor, DecodedProgram, EvKind, Event, Memory};
use spt_mach::{CacheSim, CacheStats, MachineConfig, RegCheckPolicy};
use spt_sir::{BlockId, FuncId, Op, Program, Reg};
use spt_trace::{NullSink, Pipe, TraceEvent, TraceSink};

/// Result of an SPT run.

#[derive(Clone, Debug)]
pub struct SptReport {
    /// Program execution time: main-pipeline cycles.
    pub cycles: u64,
    /// Instructions retired by the main pipeline (incl. replay commits).
    pub instrs: u64,
    pub breakdown: CycleBreakdown,
    pub cache: CacheStats,
    /// Speculative threads spawned (main-thread forks plus ring forks).
    pub forks: u64,
    /// Main-thread forks ignored because speculation was already running.
    pub forks_ignored: u64,
    pub fast_commits: u64,
    pub replays: u64,
    /// `spt_kill` + safety kills (loop exits) + downstream invalidations.
    pub kills: u64,
    /// Replay terminations due to control divergence.
    pub divergence_kills: u64,
    /// Speculatively executed instructions that reached a dependence check.
    pub spec_instrs_checked: u64,
    /// Speculatively executed instructions discarded by kills.
    pub spec_instrs_discarded: u64,
    /// Misspeculated instructions re-executed during replay.
    pub spec_misspec: u64,
    pub per_loop: Vec<PerLoopStats>,
    /// Per-fabric-core statistics (length = configured core count).
    pub per_core: Vec<PerCoreStats>,
    /// Main-pipeline branch predictor statistics.
    pub bp_mispredicts: u64,
    pub bp_lookups: u64,
    pub ret: Option<i64>,
    pub steps: u64,
    pub out_of_fuel: bool,
    /// Main-thread block-superstep memo hits/misses (0 when the run is
    /// traced; speculative cursors always bypass the memo).
    pub superstep_hits: u64,
    pub superstep_misses: u64,
}

impl SptReport {
    /// Fraction of spawned speculative threads that fast-committed.
    pub fn fast_commit_ratio(&self) -> f64 {
        if self.forks == 0 {
            0.0
        } else {
            self.fast_commits as f64 / self.forks as f64
        }
    }

    /// Misspeculated fraction of all speculatively executed instructions.
    pub fn misspeculation_ratio(&self) -> f64 {
        let total = self.spec_instrs_checked + self.spec_instrs_discarded;
        if total == 0 {
            0.0
        } else {
            self.spec_misspec as f64 / total as f64
        }
    }

    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Fraction of speculative-core instructions relative to the whole
    /// fabric (0.0 when per-core stats are absent or empty).
    pub fn spec_core_instr_share(&self) -> f64 {
        let total: u64 = self.per_core.iter().map(|c| c.instrs).sum();
        if total == 0 {
            0.0
        } else {
            let spec: u64 = self.per_core.iter().skip(1).map(|c| c.instrs).sum();
            spec as f64 / total as f64
        }
    }
}

/// State of one live speculative thread.
struct SpecState<'p> {
    cursor: Cursor<'p>,
    /// Fabric core hosting this thread (1-based; core 0 is architectural).
    core: usize,
    ssb: Ssb,
    /// Load address buffer: speculative loads that went to cache/memory.
    lab: AddrMembers,
    srb: Vec<Event>,
    /// Fork-level registers read by the speculative thread before writing.
    live_in_reads: RegSet,
    /// `(register, fork-time value)` per live-in, captured lazily at the
    /// first read: a register this thread has not yet written still holds
    /// its fork-time value in the thread's own fork-level frame, so the
    /// capture replaces the eager whole-frame snapshot the fork path used
    /// to copy. Insertion order; exactly the members of `live_in_reads`.
    live_in_vals: Vec<(u32, i64)>,
    /// Fork-level registers written by the speculative thread.
    spec_written: RegSet,
    /// Fork-level registers written by the main thread post-fork (plus,
    /// for downstream ring threads, by committed predecessors).
    post_fork_writes: RegSet,
    /// Memory words where a post-fork store hit the LAB.
    violated_addrs: AddrList,
    /// Index of the frame that was live at the fork.
    fork_level: usize,
    /// `frames.len()` at fork (start-point depth).
    start_depth: usize,
    /// Static position of the start-point.
    start_pos: EvKind,
    /// Cached earliest main-pipeline cycle this thread's next instruction
    /// could issue (`u64::MAX` once halted). Refreshed after each of the
    /// thread's own steps (nothing else moves its cursor or engine).
    /// When `gate_exact` is false this is only a *lower bound* (engine
    /// cycle / fetch gate / frame baseline, no operand walk) — still
    /// sufficient to prove ineligibility whenever it exceeds the main
    /// cycle; [`SptSim::refine_gate`] upgrades it on demand.
    gate: u64,
    gate_exact: bool,
    stalled: bool,
    /// Annotated loop this fork belongs to, if known.
    loop_idx: Option<usize>,
    /// Cycle at which the fork issued (trace attribution).
    fork_cycle: u64,
}

impl<'a> SpecState<'a> {
    /// Fork a new thread state from `parent`, recycling a finished
    /// thread's buffers from `pool` when one is available so the hot
    /// fork path reuses register files, store-buffer slots and stamp
    /// tables instead of allocating. When the within-run pool is empty,
    /// buffers retained by the arena from *previous* runs (`bufs`) are
    /// rebuilt the same way; only with both exhausted does the fork
    /// allocate.
    #[allow(clippy::too_many_arguments)]
    fn acquire(
        pool: &mut Vec<SpecState<'a>>,
        bufs: &mut Vec<SpecBufs>,
        parent: &Cursor<'a>,
        start: BlockId,
        mem_words: usize,
        core: usize,
        start_pos: EvKind,
        loop_idx: Option<usize>,
        fork_cycle: u64,
    ) -> SpecState<'a> {
        let fork_level = parent.depth() - 1;
        let start_depth = parent.depth();
        match pool.pop() {
            Some(mut st) => {
                parent.fork_speculative_into(start, &mut st.cursor);
                st.ssb.clear();
                st.lab.clear();
                st.srb.clear();
                st.live_in_reads.clear();
                st.live_in_vals.clear();
                st.spec_written.clear();
                st.post_fork_writes.clear();
                st.violated_addrs.clear();
                st.core = core;
                st.fork_level = fork_level;
                st.start_depth = start_depth;
                st.start_pos = start_pos;
                st.gate = 0;
                st.gate_exact = false;
                st.stalled = false;
                st.loop_idx = loop_idx;
                st.fork_cycle = fork_cycle;
                st
            }
            None => {
                // Cross-run reuse: rebuild a SpecState around buffers a
                // previous run retired into the arena. Every buffer is
                // cleared exactly as the pool arm clears it (the SSB
                // additionally grows to this run's memory: new slots carry
                // stamp 0, old stamps are dead behind the epoch bump, so
                // the result is observationally `Ssb::with_words`).
                let mut st = match bufs.pop() {
                    Some(b) => {
                        let mut cursor = Cursor::empty_in(parent.decoded(), b.cursor);
                        parent.fork_speculative_into(start, &mut cursor);
                        SpecState {
                            cursor,
                            core,
                            ssb: b.ssb,
                            lab: b.lab,
                            srb: b.srb,
                            live_in_reads: b.live_in_reads,
                            live_in_vals: b.live_in_vals,
                            spec_written: b.spec_written,
                            post_fork_writes: b.post_fork_writes,
                            violated_addrs: b.violated_addrs,
                            fork_level,
                            start_depth,
                            start_pos,
                            gate: 0,
                            gate_exact: false,
                            stalled: false,
                            loop_idx,
                            fork_cycle,
                        }
                    }
                    None => SpecState {
                        cursor: parent.fork_speculative(start),
                        core,
                        ssb: Ssb::new(),
                        lab: AddrMembers::new(),
                        srb: Vec::new(),
                        live_in_reads: RegSet::new(),
                        live_in_vals: Vec::new(),
                        spec_written: RegSet::new(),
                        post_fork_writes: RegSet::new(),
                        violated_addrs: AddrList::new(),
                        fork_level,
                        start_depth,
                        start_pos,
                        gate: 0,
                        gate_exact: false,
                        stalled: false,
                        loop_idx,
                        fork_cycle,
                    },
                };
                st.ssb.clear();
                st.ssb.ensure_words(mem_words);
                st.lab.clear();
                st.srb.clear();
                st.live_in_reads.clear();
                st.live_in_vals.clear();
                st.spec_written.clear();
                st.post_fork_writes.clear();
                st.violated_addrs.clear();
                st
            }
        }
    }

    /// Retire this thread's heap buffers into the arena's cross-run pool.
    fn into_bufs(self) -> SpecBufs {
        SpecBufs {
            cursor: self.cursor.into_parts(),
            ssb: self.ssb,
            lab: self.lab,
            srb: self.srb,
            live_in_reads: self.live_in_reads,
            live_in_vals: self.live_in_vals,
            spec_written: self.spec_written,
            post_fork_writes: self.post_fork_writes,
            violated_addrs: self.violated_addrs,
        }
    }
}

/// What a fast commit leaves behind for downstream ring threads. Owned by
/// the run as a scratch buffer and refilled per commit, so the steady
/// state performs no per-commit allocation.
#[derive(Default)]
struct CommitEffects {
    /// Word addresses the committed thread's SSB wrote back.
    drained_addrs: Vec<u64>,
    /// Fork-level registers the committed thread (or the main thread
    /// during its lifetime) wrote — mark-based checking treats these as
    /// post-fork writes for every downstream thread.
    written: Vec<u32>,
}

/// Outcome of a dependence check, as seen by downstream ring threads.
enum Recovered {
    /// The thread's context was adopted; downstream threads stay live.
    /// The payload says whether the caller's [`CommitEffects`] scratch
    /// was (re)filled for downstream consumption.
    FastCommit(bool),
    /// Replay, squash, or divergence kill: the architectural state was
    /// rewritten, so every downstream thread is invalid.
    Rollback,
}

/// Discard every live speculative thread (oldest first), attributing a
/// kill to each.
#[allow(clippy::too_many_arguments)]
fn kill_all_threads<'a>(
    spec: &mut Vec<SpecState<'a>>,
    pool: &mut Vec<SpecState<'a>>,
    cycle: u64,
    kills: &mut u64,
    spec_discarded: &mut u64,
    per_loop: &mut [PerLoopStats],
    per_core: &mut [PerCoreStats],
    sink: &mut dyn TraceSink,
) {
    for sp in spec.drain(..) {
        *kills += 1;
        *spec_discarded += sp.srb.len() as u64;
        if let Some(li) = sp.loop_idx {
            per_loop[li].kills += 1;
        }
        per_core[sp.core].kills += 1;
        if sink.enabled() {
            sink.emit(
                cycle,
                TraceEvent::Kill {
                    loop_id: sp.loop_idx,
                    fork_cycle: sp.fork_cycle,
                    srb_len: sp.srb.len(),
                },
            );
        }
        pool.push(sp);
    }
}

/// The SPT machine.
pub struct SptSim<'p> {
    prog: &'p Program,
    /// Pre-decoded instruction streams — the form the hot loops execute.
    dec: DecodedProgram,
    cfg: MachineConfig,
    annots: LoopAnnotations,
}

impl<'p> SptSim<'p> {
    pub fn new(prog: &'p Program, cfg: MachineConfig, annots: LoopAnnotations) -> Self {
        SptSim {
            prog,
            dec: DecodedProgram::new(prog),
            cfg,
            annots,
        }
    }

    /// Static position of the first thing executed in `block` of `func`.
    fn position_of(&self, func: FuncId, block: BlockId) -> EvKind {
        self.dec.position_of(func, block)
    }

    /// Precise operand registers of the statement behind an event
    /// (the event's own `srcs` are capacity-limited for timing).
    fn static_srcs(&self, ev: &Event) -> &[Reg] {
        self.dec.srcs_of(ev.kind)
    }

    /// Recompute a thread's cached gate: the earliest cycle its next
    /// instruction could issue on its own engine (`ready_time` is ≥ the
    /// engine's cycle, so one cached value subsumes the old `eng.cycle()
    /// ≤ main && ready ≤ main` pair). Only this thread's own steps change
    /// it — each thread owns its core's engine — so this runs once per
    /// step instead of once per scheduler scan.
    ///
    /// The gate is computed lazily against `by` (the frozen main cycle):
    /// a speculative pipeline usually runs *ahead* of the main one, and
    /// then [`Engine::ready_floor`] alone already exceeds `by` — the
    /// operand walk (`srcs_of` + per-register scoreboard reads) is skipped
    /// and the floor is stored as an inexact lower bound. Scans that later
    /// see the bound at or below their main cycle refine it first via
    /// [`SptSim::refine_gate`], so eligibility decisions are unchanged.
    fn refresh_gate(dec: &DecodedProgram, sp: &mut SpecState<'_>, eng: &Engine, by: u64) {
        if sp.cursor.is_halted() {
            sp.gate = u64::MAX;
            sp.gate_exact = true;
            return;
        }
        let depth = (sp.cursor.depth() - 1) as u32;
        let floor = eng.ready_floor(depth);
        if floor > by {
            sp.gate = floor;
            sp.gate_exact = false;
        } else if eng.ready_bound(depth) <= by {
            // Every register of the frame is provably ready by `by`, so
            // the exact gate is ≤ `by` too: the thread stays eligible
            // without the operand walk. The floor stands in as the usual
            // inexact lower bound; the next scan refines it before
            // trusting the value.
            sp.gate = floor;
            sp.gate_exact = false;
        } else {
            let pos = sp
                .cursor
                .position()
                .expect("unhalted cursor has a position");
            sp.gate = eng.ready_time(depth, dec.srcs_of(pos).iter().map(|r| r.0));
            sp.gate_exact = true;
        }
    }

    /// Upgrade a lazily-computed gate lower bound to the exact issue
    /// cycle. A no-op once exact; exactness persists until the thread's
    /// next own step (nothing else moves its engine or cursor).
    fn refine_gate(dec: &DecodedProgram, sp: &mut SpecState<'_>, eng: &Engine) {
        if !sp.gate_exact {
            if let Some(pos) = sp.cursor.position() {
                let depth = (sp.cursor.depth() - 1) as u32;
                sp.gate = eng.ready_time(depth, dec.srcs_of(pos).iter().map(|r| r.0));
            }
            sp.gate_exact = true;
        }
    }

    /// Run the program to completion (or until `max_steps` interpreter steps
    /// across all pipelines) on the thread's arena.
    pub fn run(&self, max_steps: u64) -> SptReport {
        arena::with_thread_arena(|a| {
            let (report, mem) = self.run_in(a, max_steps, &mut NullSink);
            a.put_mem(mem);
            report
        })
    }

    /// Run on the thread's arena with a trace sink receiving one event per
    /// observable speculation action, returning the final architectural
    /// memory image too, so differential tests can compare the SPT
    /// machine's committed state against a sequential interpretation word
    /// for word. With a disabled sink the report is exactly
    /// [`SptSim::run`]'s.
    pub fn run_traced(&self, max_steps: u64, sink: &mut dyn TraceSink) -> (SptReport, Memory) {
        arena::with_thread_arena(|a| self.run_in(a, max_steps, sink))
    }

    /// The simulation loop proper, on an explicit arena: check every heap
    /// component out of `arena` (reset-or-fresh), run, retire the
    /// components back. The final memory image is handed to the caller.
    pub fn run_in(
        &self,
        arena: &mut SimArena,
        max_steps: u64,
        sink: &mut dyn TraceSink,
    ) -> (SptReport, Memory) {
        let cfg = &self.cfg;
        let cores = cfg.cores.max(2);
        let mut mem = arena.take_mem(self.prog);
        let mut cache = arena.take_cache(cfg);
        let mut main = Cursor::at_entry_in(&self.dec, arena.take_cursor_parts());
        let mut main_core = arena.take_core(cfg, Pipe::Main);
        // Speculative cores are created once and reused across threads:
        // `advance_to` + `reset_context` at each spawn model the RF copy,
        // while the engine keeps accumulating its per-core statistics.
        let mut spec_cores: Vec<PipelineCore> = (1..cores)
            .map(|_| arena.take_core(cfg, Pipe::Spec))
            .collect();
        let mut tracker = LoopCycleTracker::new(&self.annots);
        // Live speculative threads, oldest (next to be checked) first.
        let mut spec: Vec<SpecState<'_>> = Vec::new();
        // Finished thread states, retained so forks reuse their buffers.
        let mut pool: Vec<SpecState<'_>> = Vec::new();
        // Thread buffers retained by the arena from previous runs, drawn
        // on when `pool` is empty.
        let mut bufs = arena.take_spec_bufs_pool();
        // Per-commit effects scratch, recycled across every fast commit
        // of the run.
        let mut fx = CommitEffects::default();

        let mut per_loop: Vec<PerLoopStats> = self
            .annots
            .loops
            .iter()
            .map(|l| PerLoopStats {
                id: l.id,
                ..Default::default()
            })
            .collect();
        let mut per_core: Vec<PerCoreStats> = (0..cores)
            .map(|c| PerCoreStats {
                core: c,
                ..Default::default()
            })
            .collect();

        // Superstepping: main-thread-only (speculative cursors bypass the
        // memo entirely), bypassed on traced runs so the trace layer sees
        // the interpreter's native path. Bit-identical by construction.
        let mut memo =
            (!sink.enabled()).then(|| arena.take_memo(self.dec.n_flat_blocks() as usize));
        let mut steps = 0u64;
        let mut forks = 0u64;
        let mut forks_ignored = 0u64;
        let mut fast_commits = 0u64;
        let mut replays = 0u64;
        let mut kills = 0u64;
        let mut divergence_kills = 0u64;
        let mut spec_checked = 0u64;
        let mut spec_discarded = 0u64;
        let mut spec_misspec = 0u64;
        // Trace-only state (untouched when the sink is disabled).
        let mut srb_high_water = 0usize;
        // A sink's enabled-ness never changes mid-run: hoist it so the
        // per-step paths branch on a local instead of a virtual call.
        let traced = sink.enabled();
        // Count of leading ring threads known parked (see the scan below).
        let mut lead = 0usize;

        'outer: while !main.is_halted() && steps < max_steps {
            // Let the speculative pipelines catch up in time, oldest thread
            // first. A thread only steps when its next instruction could
            // actually issue by now — an operand still in flight leaves the
            // pipeline stalled, not running ahead of wall-clock.
            let main_cycle = main_core.engine.cycle();
            // A parked thread stays parked until it leaves the ring
            // (arrival commit or kill), so the scan can remember how many
            // leading threads are stalled and start past them; `lead` is
            // rolled back by one on `spec.remove(0)` and to zero on a
            // ring-wide kill.
            while lead < spec.len() && spec[lead].stalled {
                lead += 1;
            }
            let mut step_idx = None;
            for (i, sp) in spec.iter_mut().enumerate().skip(lead) {
                // No park check here: a thread can only reach its
                // successor's start-point by stepping, and the batch loop
                // checks after every step (the successor's identity is
                // fixed at its fork, which the same batch also covers), so
                // the scan would never see an unparked thread at it.
                if !sp.stalled && sp.gate <= main_cycle {
                    // A lazily-bounded gate at or below the main cycle
                    // proves nothing yet. The frame-level readiness bound
                    // usually settles it without the operand walk: when
                    // every register of the frame is ready by the main
                    // cycle, so is the next instruction's operand set (the
                    // gate stays an inexact lower bound). Otherwise refine
                    // to the exact issue cycle before committing.
                    let eng = &spec_cores[sp.core - 1].engine;
                    let eligible = sp.gate_exact
                        || eng.ready_bound((sp.cursor.depth() - 1) as u32) <= main_cycle
                        || {
                            Self::refine_gate(&self.dec, sp, eng);
                            sp.gate <= main_cycle
                        };
                    if eligible {
                        step_idx = Some(i);
                        break;
                    }
                }
            }
            if let Some(i) = step_idx {
                // Batch: keep stepping thread `i` while it stays eligible.
                // Every thread before `i` was ineligible at scan time and
                // stays so while only `i` steps (each thread owns its
                // core's engine, successors' start-points are static and
                // the main pipeline is idle here), so re-scanning the
                // prefix between steps is pure overhead; only `i`'s own
                // park/stall/gate conditions can change.
                loop {
                    steps += 1;
                    let sp = &mut spec[i];
                    let core = &mut spec_cores[sp.core - 1];
                    let fork_req =
                        Self::step_spec(&self.dec, sp, core, &mut cache, &mut mem, cfg, traced);
                    if traced {
                        if sp.srb.len() > srb_high_water {
                            srb_high_water = sp.srb.len();
                            sink.emit(
                                core.engine.cycle(),
                                TraceEvent::SrbHighWater {
                                    occupancy: srb_high_water,
                                },
                            );
                        }
                        core.note_stall(sink);
                    }
                    Self::refresh_gate(&self.dec, sp, &core.engine, main_cycle);
                    // A speculative thread's own `spt_fork`: the youngest
                    // thread spawns the next iteration on a free ring core;
                    // with no free core (always, at N=2) it is dropped
                    // silently.
                    if let Some((func, start)) = fork_req {
                        if i + 1 == spec.len() && spec.len() + 1 < cores {
                            let free = (1..cores)
                                .find(|c| !spec.iter().any(|s| s.core == *c))
                                .expect("thread count below cores-1 implies a free core");
                            forks += 1;
                            let parent = &spec[i];
                            let loop_idx =
                                self.annots.by_fork_start(func, start).or(parent.loop_idx);
                            if let Some(li) = loop_idx {
                                per_loop[li].forks += 1;
                            }
                            let parent_cycle = spec_cores[parent.core - 1].engine.cycle();
                            if sink.enabled() {
                                sink.emit(
                                    parent_cycle,
                                    TraceEvent::RingFork {
                                        loop_id: loop_idx,
                                        core: free,
                                        func,
                                        start_block: start,
                                    },
                                );
                            }
                            let t = parent_cycle + cfg.rf_copy_overhead;
                            let succ = &mut spec_cores[free - 1].engine;
                            succ.advance_to(t);
                            succ.reset_context(t);
                            per_core[free].threads += 1;
                            let mut st = SpecState::acquire(
                                &mut pool,
                                &mut bufs,
                                &spec[i].cursor,
                                start,
                                mem.len(),
                                free,
                                self.position_of(func, start),
                                loop_idx,
                                parent_cycle,
                            );
                            // Rebase the parent's fork-level dirty mask to
                            // this fork instant: the mask reaches the main
                            // cursor through this thread's commit adopt,
                            // where the new thread's value check consumes
                            // it (a clear bit proves the register still
                            // holds the value the new thread will lazily
                            // capture at first read).
                            spec[i].cursor.clear_dirty_at(st.fork_level);
                            Self::refresh_gate(
                                &self.dec,
                                &mut st,
                                &spec_cores[free - 1].engine,
                                main_cycle,
                            );
                            spec.push(st);
                        }
                    }
                    if steps >= max_steps {
                        break;
                    }
                    // Park check: the thread reached its successor's
                    // start-point, so hold it rather than re-execute the
                    // successor's iteration. Raw frame fields suffice —
                    // `start_pos` always points at the first event of its
                    // block (`position_of`), which is what
                    // `at_block_start` tests — and stepping is the only
                    // way to get here, so checking after every step
                    // covers every park transition.
                    if i + 1 < spec.len() {
                        let nxt = &spec[i + 1];
                        if spec[i].cursor.depth() == nxt.start_depth
                            && spec[i]
                                .cursor
                                .at_block_start(nxt.start_pos.func(), nxt.start_pos.block())
                        {
                            spec[i].stalled = true;
                        }
                    }
                    let sp = &spec[i];
                    if sp.stalled || sp.gate > main_cycle {
                        break;
                    }
                }
                continue 'outer;
            }

            // No speculative thread can become eligible before `next_gate`:
            // gates, stall flags and park inputs change only when a
            // speculative thread steps, and none steps while the main
            // pipeline runs. Batch main-pipeline steps until that cycle so
            // the ring is not rescanned between every event. Inexact gates
            // are lower bounds of the true issue cycle, so the minimum is
            // still a sound batching horizon (worst case: an early rescan
            // that refines them). Fork, kill and arrival exits below
            // restore the full scheduling loop.
            let next_gate = spec[lead..]
                .iter()
                .filter(|s| !s.stalled)
                .map(|s| s.gate)
                .min()
                .unwrap_or(u64::MAX);
            // The oldest thread's start-point is static for the whole inner
            // loop (every path that mutates `spec` exits via `continue
            // 'outer`), so hoist its components and let the per-event
            // arrival check be three field compares instead of an `EvKind`
            // construction. `start_pos` always points at the first event of
            // its block (`position_of`), which is what `at_block_start`
            // tests.
            let arrive = spec
                .first()
                .map(|s| (s.start_pos.func(), s.start_pos.block(), s.start_depth));
            loop {
                // Arrival at the oldest thread's start-point?
                if let Some((af, ab, ad)) = arrive {
                    if main.at_block_start(af, ab) && main.depth() == ad {
                        let sp = spec.remove(0);
                        lead = lead.saturating_sub(1);
                        let spec_core_idx = sp.core - 1;
                        let outcome = self.check_and_recover(
                            sp,
                            &mut pool,
                            &mut main,
                            &mut main_core,
                            &spec_cores[spec_core_idx].engine,
                            &mut cache,
                            &mut mem,
                            &mut tracker,
                            &mut per_loop,
                            &mut per_core,
                            &mut steps,
                            max_steps,
                            &mut fast_commits,
                            &mut replays,
                            &mut divergence_kills,
                            &mut spec_checked,
                            &mut spec_misspec,
                            !spec.is_empty(),
                            &mut fx,
                            sink,
                        );
                        match outcome {
                            Recovered::FastCommit(has_effects) => {
                                if has_effects {
                                    // The committed thread's stores just became
                                    // architectural: any downstream thread that
                                    // speculatively loaded one of those words read
                                    // a stale value.
                                    for sp2 in spec.iter_mut() {
                                        for &a in &fx.drained_addrs {
                                            if sp2.lab.contains(a) {
                                                sp2.violated_addrs.insert(a);
                                            }
                                        }
                                        if cfg.reg_check == RegCheckPolicy::MarkBased {
                                            // Conservative: every register the
                                            // committed thread wrote counts as a
                                            // post-fork write for its successors.
                                            sp2.post_fork_writes.extend_from_slice(&fx.written);
                                        }
                                    }
                                }
                            }
                            Recovered::Rollback => {
                                kill_all_threads(
                                    &mut spec,
                                    &mut pool,
                                    main_core.engine.cycle(),
                                    &mut kills,
                                    &mut spec_discarded,
                                    &mut per_loop,
                                    &mut per_core,
                                    sink,
                                );
                                lead = 0;
                            }
                        }
                        continue 'outer;
                    }
                }

                // Main pipeline: with no live speculative threads there is no
                // arrival/park/post-fork bookkeeping to interleave, so whole
                // memoized blocks can be superstepped (memo blocks contain no
                // fork/kill/call/ret by classification). `memo_candidate`
                // screens out the common no-fast-path probes (mid-block or
                // unmemoizable positions) before the call.
                if spec.is_empty() && main.memo_candidate() {
                    if let Some(memo) = memo.as_mut() {
                        // The memo only exists on untraced runs: quiet issue.
                        let n = main.superstep(&mut mem, memo, max_steps - steps, &mut |ev| {
                            main_core.step_issue_quiet(ev, &mut cache, cfg, &mut tracker);
                        });
                        if n > 0 {
                            steps += n;
                            continue 'outer;
                        }
                    }
                }

                // Main pipeline executes one step.
                let Some(ev) = main.step(&mut mem) else {
                    break 'outer;
                };
                steps += 1;
                if traced {
                    main_core.step_issue(&ev, &mut cache, cfg, &mut tracker, sink);
                } else {
                    main_core.step_issue_quiet(&ev, &mut cache, cfg, &mut tracker);
                }

                // Fork?
                if let Some(start) = ev.fork {
                    if spec.is_empty() {
                        forks += 1;
                        let func = ev.kind.func();
                        let loop_idx = self.annots.by_fork_start(func, start).or_else(|| {
                            tracker.current() // fall back to enclosing annotated loop
                        });
                        if let Some(li) = loop_idx {
                            per_loop[li].forks += 1;
                        }
                        if sink.enabled() {
                            sink.emit(
                                main_core.engine.cycle(),
                                TraceEvent::Fork {
                                    loop_id: loop_idx,
                                    func,
                                    start_block: start,
                                },
                            );
                        }
                        // All ring cores are free: the thread goes to core 1.
                        // RF copy overhead: the pipeline starts after it.
                        let t = main_core.engine.cycle() + cfg.rf_copy_overhead;
                        spec_cores[0].engine.advance_to(t);
                        spec_cores[0].engine.reset_context(t);
                        per_core[1].threads += 1;
                        let mut st = SpecState::acquire(
                            &mut pool,
                            &mut bufs,
                            &main,
                            start,
                            mem.len(),
                            1,
                            self.position_of(func, start),
                            loop_idx,
                            main_core.engine.cycle(),
                        );
                        // Rebase main's fork-level dirty mask to the fork
                        // instant: from here on a clear bit proves the
                        // register still holds its fork-time value, which
                        // is exactly what the dirty-filtered value check
                        // relies on.
                        main.clear_dirty_at(st.fork_level);
                        Self::refresh_gate(
                            &self.dec,
                            &mut st,
                            &spec_cores[0].engine,
                            main_core.engine.cycle(),
                        );
                        spec.push(st);
                    } else {
                        forks_ignored += 1;
                        if sink.enabled() {
                            sink.emit(
                                main_core.engine.cycle(),
                                TraceEvent::ForkIgnored {
                                    func: ev.kind.func(),
                                    start_block: start,
                                },
                            );
                        }
                    }
                    continue 'outer;
                }

                // Kill?
                if ev.kill {
                    kill_all_threads(
                        &mut spec,
                        &mut pool,
                        main_core.engine.cycle(),
                        &mut kills,
                        &mut spec_discarded,
                        &mut per_loop,
                        &mut per_core,
                        sink,
                    );
                    lead = 0;
                    continue 'outer;
                }

                // Track main post-fork register writes and store-address checks
                // against every live thread. Most events are neither an
                // executed store nor (under the mark-based policy) a register
                // write, so screen once before walking the ring.
                if !spec.is_empty() {
                    let store = matches!(ev.mem, Some(m) if m.is_store && ev.executed);
                    let mark_write = cfg.reg_check == RegCheckPolicy::MarkBased && ev.dst.is_some();
                    if store || mark_write {
                        for sp in spec.iter_mut() {
                            // Post-fork write marks feed only the mark-based
                            // register check; the value-based check reads the
                            // cursor's dirty masks and the thread's lazily
                            // captured fork values instead.
                            if mark_write {
                                if let Some(dst) = ev.dst {
                                    if ev.dst_depth() as usize == sp.fork_level {
                                        sp.post_fork_writes.insert(dst.0);
                                    }
                                }
                            }
                            if let Some(m) = ev.mem {
                                if m.is_store && ev.executed && sp.lab.contains(m.addr) {
                                    sp.violated_addrs.insert(m.addr);
                                }
                            }
                        }
                    }
                    // Safety: main left the fork frame without a kill. All ring
                    // threads speculate iterations of the same loop frame, so
                    // all of them are dead.
                    if main.depth() < spec[0].start_depth {
                        kill_all_threads(
                            &mut spec,
                            &mut pool,
                            main_core.engine.cycle(),
                            &mut kills,
                            &mut spec_discarded,
                            &mut per_loop,
                            &mut per_core,
                            sink,
                        );
                        lead = 0;
                        continue 'outer;
                    }
                }
                if steps >= max_steps || main_core.engine.cycle() >= next_gate {
                    continue 'outer;
                }
            }
        }

        // Fold tracker cycles into per-loop stats.
        tracker.fold_into(&mut per_loop);
        per_core[0].instrs = main_core.engine.instrs();
        for (i, core) in spec_cores.iter().enumerate() {
            per_core[i + 1].instrs = core.engine.instrs();
        }

        let report = SptReport {
            cycles: main_core.engine.cycle() + 1,
            instrs: main_core.engine.instrs(),
            breakdown: main_core.engine.breakdown(),
            cache: cache.stats(),
            forks,
            forks_ignored,
            fast_commits,
            replays,
            kills,
            divergence_kills,
            spec_instrs_checked: spec_checked,
            spec_instrs_discarded: spec_discarded
                + spec.iter().map(|s| s.srb.len() as u64).sum::<u64>(),
            spec_misspec,
            per_loop,
            per_core,
            bp_mispredicts: main_core.engine.bp_mispredicts(),
            bp_lookups: main_core.engine.bp_lookups(),
            ret: main.return_value(),
            steps,
            out_of_fuel: !main.is_halted() && steps >= max_steps,
            superstep_hits: memo.as_ref().map_or(0, |m| m.hits()),
            superstep_misses: memo.as_ref().map_or(0, |m| m.misses()),
        };

        // Retire every reusable component into the arena (the memory image
        // goes to the caller; `run` retires it).
        for sp in spec.drain(..) {
            bufs.push(sp.into_bufs());
        }
        for sp in pool.drain(..) {
            bufs.push(sp.into_bufs());
        }
        arena.put_spec_bufs_pool(bufs);
        arena.put_cursor_parts(main.into_parts());
        arena.put_core(main_core);
        for c in spec_cores {
            arena.put_core(c);
        }
        arena.put_cache(cache);
        if let Some(m) = memo {
            arena.put_memo(m);
        }
        arena.publish_retained();
        (report, mem)
    }

    /// One speculative-pipeline step. Returns the fork request (`spt_fork`
    /// function and start block) if this step executed one.
    fn step_spec(
        dec: &DecodedProgram,
        sp: &mut SpecState<'_>,
        core: &mut PipelineCore,
        cache: &mut CacheSim,
        mem: &mut Memory,
        cfg: &MachineConfig,
        traced: bool,
    ) -> Option<(FuncId, BlockId)> {
        let mut view = SpecMem {
            ssb: &mut sp.ssb,
            base: mem,
        };
        let Some(ev) = sp.cursor.step(&mut view) else {
            sp.stalled = true;
            return None;
        };

        // Precise live-in tracking at the fork level, with lazy fork-value
        // capture: a register this thread has not yet written still holds
        // its fork-time value in its own fork-level frame (nothing else
        // writes a speculative cursor), so recording the value at first
        // read reconstructs the fork-time snapshot without a per-fork
        // whole-frame copy.
        if ev.depth as usize == sp.fork_level {
            if sp.cursor.depth() > sp.fork_level {
                for r in dec.srcs_of(ev.kind) {
                    if !sp.spec_written.contains(r.0) && !sp.live_in_reads.contains(r.0) {
                        sp.live_in_reads.insert(r.0);
                        let v = if ev.executed && ev.dst == Some(*r) {
                            // This statement overwrote the register it read
                            // (e.g. `i = i + 1`): the fork-time value is
                            // the one the write displaced.
                            sp.cursor.last_overwritten()
                        } else {
                            sp.cursor.regs_at(sp.fork_level)[r.index()]
                        };
                        sp.live_in_vals.push((r.0, v));
                    }
                }
            } else {
                // A `ret` popped the fork frame before the operand could
                // be read back; the only register a `ret` reads is the
                // returned one, which the cursor preserves.
                for r in dec.srcs_of(ev.kind) {
                    if !sp.spec_written.contains(r.0) && !sp.live_in_reads.contains(r.0) {
                        sp.live_in_reads.insert(r.0);
                        sp.live_in_vals.push((r.0, sp.cursor.last_ret_read()));
                    }
                }
            }
        }
        if let Some(dst) = ev.dst {
            if ev.dst_depth() as usize == sp.fork_level {
                sp.spec_written.insert(dst.0);
            }
        }

        // LAB: record loads that went to cache/memory (not SSB-forwarded).
        // Some memory events need `mem` masked for timing; the event copy
        // is skipped for the common case that needs no mask.
        let mut mask_mem = false;
        if let Some(m) = ev.mem {
            if !m.is_store && ev.executed {
                if sp.ssb.contains(m.addr) {
                    // Forwarded from the store buffer: 1-cycle, no cache.
                    mask_mem = true;
                } else {
                    sp.lab.insert(m.addr);
                }
            }
            if m.is_store {
                // Speculative stores do not touch the cache until commit.
                mask_mem = true;
            }
        }
        let timing_ev;
        let tev: &Event = if mask_mem {
            timing_ev = Event { mem: None, ..ev };
            &timing_ev
        } else {
            &ev
        };
        if traced {
            core.issue(tev, cache, cfg);
        } else {
            core.issue_quiet(tev, cache, cfg);
        }

        let fork_req = ev.fork.map(|start| (ev.kind.func(), start));
        sp.srb.push(ev);
        if sp.srb.len() >= cfg.srb_entries {
            sp.stalled = true;
        }
        // Wrong-path safety: speculative thread returned out of the fork
        // frame.
        if sp.cursor.depth() <= sp.fork_level {
            sp.stalled = true;
        }
        if sp.cursor.is_halted() {
            sp.stalled = true;
        }
        fork_req
    }

    /// Dependence check at the start-point, then fast commit / replay /
    /// squash according to the configured recovery policy.
    #[allow(clippy::too_many_arguments)]
    fn check_and_recover<'a>(
        &self,
        mut sp: SpecState<'a>,
        pool: &mut Vec<SpecState<'a>>,
        main: &mut Cursor<'a>,
        main_core: &mut PipelineCore,
        spec_eng: &Engine,
        cache: &mut CacheSim,
        mem: &mut Memory,
        tracker: &mut LoopCycleTracker<'_>,
        per_loop: &mut [PerLoopStats],
        per_core: &mut [PerCoreStats],
        steps: &mut u64,
        max_steps: u64,
        fast_commits: &mut u64,
        replays: &mut u64,
        divergence_kills: &mut u64,
        spec_checked: &mut u64,
        spec_misspec: &mut u64,
        want_effects: bool,
        fx: &mut CommitEffects,
        sink: &mut dyn TraceSink,
    ) -> Recovered {
        let cfg = &self.cfg;
        let policy = policy_for(cfg.recovery);
        let check_cycle = main_core.engine.cycle();
        *spec_checked += sp.srb.len() as u64;
        if let Some(li) = sp.loop_idx {
            per_loop[li].spec_instrs += sp.srb.len() as u64;
        }

        // Register dependence check.
        let violated_regs: RegSet = match cfg.reg_check {
            RegCheckPolicy::MarkBased => sp.live_in_reads.intersection(&sp.post_fork_writes),
            RegCheckPolicy::ValueBased => {
                // The fork-level dirty mask was cleared at the fork, so
                // only registers in dirty words can hold a value differing
                // from the captured fork-time one; a clean frame compares
                // nothing.
                crate::specset::dirty_value_check(
                    main.dirty_words_at(sp.fork_level),
                    &sp.live_in_vals,
                    main.regs_at(sp.fork_level),
                )
            }
        };
        let violated = !violated_regs.is_empty() || !sp.violated_addrs.is_empty();

        if !violated && policy.allows_fast_commit() {
            // Fast commit: adopt the speculative context wholesale.
            let t = main_core.engine.cycle().max(spec_eng.cycle()) + cfg.fast_commit_overhead;
            let before = main_core.engine.cycle();
            main_core.engine.advance_to(t);
            main_core.engine.reset_context(t);
            tracker.attribute_extra(main_core.engine.cycle() - before);
            if want_effects {
                fx.drained_addrs.clear();
                fx.drained_addrs.extend(sp.ssb.addrs());
                // Downstream threads consume `written` only under
                // mark-based checking; skip the sorted union otherwise.
                fx.written.clear();
                if cfg.reg_check == RegCheckPolicy::MarkBased {
                    sp.spec_written
                        .union_sorted_into(&sp.post_fork_writes, &mut fx.written);
                }
            }
            sp.ssb.drain_to(mem);
            // Commit the speculative context. The register copy-back is a
            // *merge* at the fork-level frame: registers the speculative
            // thread wrote take its values; registers it never wrote keep
            // the main thread's — the main thread's post-fork writes are
            // program-order earlier than the speculative code and are only
            // superseded by speculative writes (the hardware tracks
            // spec-written registers in its scoreboard for exactly this).
            // A committing cursor that ran through the outermost `ret` has
            // already popped the fork-level frame — adopt it wholesale and
            // skip the merge (there is no frame left to blend into).
            // Blending main's values into the committing cursor first and
            // then adopting it wholesale needs no per-commit register
            // snapshot.
            if sp.fork_level < sp.cursor.depth() {
                sp.cursor
                    .merge_frame_from(main, sp.fork_level, sp.spec_written.words());
            }
            main.adopt(&sp.cursor);
            *fast_commits += 1;
            if let Some(li) = sp.loop_idx {
                per_loop[li].fast_commits += 1;
            }
            per_core[sp.core].fast_commits += 1;
            if sink.enabled() {
                sink.emit(
                    main_core.engine.cycle(),
                    TraceEvent::FastCommit {
                        loop_id: sp.loop_idx,
                        fork_cycle: sp.fork_cycle,
                        srb_len: sp.srb.len(),
                    },
                );
            }
            pool.push(sp);
            return Recovered::FastCommit(want_effects);
        }

        if violated && policy.squash_on_violation() {
            // Trash all speculative results; main re-executes normally.
            // Tearing down the speculative thread costs the same minimum
            // thread-management overhead as any other end-of-speculation
            // action.
            main_core
                .engine
                .advance_to(main_core.engine.cycle() + cfg.fast_commit_overhead);
            if let Some(li) = sp.loop_idx {
                per_loop[li].kills += 1;
            }
            per_core[sp.core].kills += 1;
            // Everything in the SRB was wasted.
            *spec_misspec += sp.srb.len() as u64;
            if let Some(li) = sp.loop_idx {
                per_loop[li].spec_misspec += sp.srb.len() as u64;
            }
            if sink.enabled() {
                sink.emit(
                    main_core.engine.cycle(),
                    TraceEvent::Squash {
                        loop_id: sp.loop_idx,
                        fork_cycle: sp.fork_cycle,
                        srb_len: sp.srb.len(),
                    },
                );
            }
            pool.push(sp);
            return Recovered::Rollback;
        }

        // Replay with selective re-execution. Switching the main pipeline
        // into replay mode costs at least as much as a commit (drain +
        // speculation-buffer synchronization) — this is what makes the
        // fast-commit shortcut a shortcut.
        *replays += 1;
        if let Some(li) = sp.loop_idx {
            per_loop[li].replays += 1;
        }
        per_core[sp.core].replays += 1;
        main_core
            .engine
            .advance_to(main_core.engine.cycle() + cfg.fast_commit_overhead);
        main_core.engine.set_width(cfg.replay_width);

        // Sorted violation lists for the trace (the sets drive recovery;
        // the trace needs a deterministic order).
        let (trace_regs, trace_addrs) = if sink.enabled() {
            let mut addrs: Vec<u64> = sp.violated_addrs.iter().collect();
            addrs.sort_unstable();
            (violated_regs.iter().collect::<Vec<u32>>(), addrs)
        } else {
            (Vec::new(), Vec::new())
        };
        let mut committed_n = 0usize;
        let mut reexec_n = 0usize;

        let mut updated = DepthRegSet::new();
        updated.seed_level(sp.fork_level as u32, violated_regs);
        let mut updated_addrs = AddrMembers::new();
        for a in sp.violated_addrs.iter() {
            updated_addrs.insert(a);
        }

        // `processed` = SRB entries fully replayed before this iteration.
        for (processed, entry) in sp.srb.iter().enumerate() {
            if *steps >= max_steps {
                break;
            }
            // Control divergence: the correct path no longer matches the
            // speculated one — kill and resume normal execution here.
            if main.position() != Some(entry.kind) || main.is_halted() {
                *divergence_kills += 1;
                if let Some(li) = sp.loop_idx {
                    per_loop[li].kills += 1;
                }
                per_core[sp.core].kills += 1;
                if sink.enabled() {
                    sink.emit(
                        main_core.engine.cycle(),
                        TraceEvent::DivergenceKill {
                            loop_id: sp.loop_idx,
                            committed: processed,
                        },
                    );
                }
                break;
            }
            let cev = main.step(mem).expect("not halted");
            *steps += 1;

            // Misspeculation determination (the dependence checkers of §3.2
            // plus scoreboard propagation during replay).
            let mut missp = entry.executed != cev.executed;
            if !missp && cev.executed {
                for r in self.static_srcs(&cev) {
                    if updated.contains(cev.depth, r.0) {
                        missp = true;
                        break;
                    }
                }
                if let Some(m) = entry.mem {
                    if !m.is_store && updated_addrs.contains(m.addr) {
                        missp = true;
                    }
                }
            }

            // Timing: commit correct results directly; re-execute the rest.
            let delta = if missp {
                let d = main_core.issue(&cev, cache, cfg);
                *spec_misspec += 1;
                reexec_n += 1;
                if let Some(li) = sp.loop_idx {
                    per_loop[li].spec_misspec += 1;
                }
                d
            } else {
                committed_n += 1;
                main_core.commit_slot(&cev)
            };
            tracker.observe(&cev, delta);

            // Propagate "updated" marks.
            if let Some(dst) = cev.dst {
                let converged = cfg.reg_check == RegCheckPolicy::ValueBased
                    && cev.dst_val == entry.dst_val
                    && cev.executed == entry.executed;
                if missp && !converged {
                    updated.insert(cev.dst_depth(), dst.0);
                } else {
                    updated.remove(cev.dst_depth(), dst.0);
                }
            }
            if let Some(m) = cev.mem {
                if m.is_store && cev.executed {
                    let spec_val = entry.mem.filter(|em| em.is_store).map(|em| em.value);
                    if missp && spec_val != Some(m.value) {
                        updated_addrs.insert(m.addr);
                    } else {
                        updated_addrs.remove(m.addr);
                    }
                }
            }
            // Calls: a poisoned argument poisons the callee parameter.
            if cev.is_call() {
                if let EvKind::Inst { func, sref } = cev.kind {
                    if let Op::Call { args, .. } = &self.prog.func(func).inst(sref).op {
                        for (i, a) in args.iter().enumerate() {
                            if updated.contains(cev.depth, a.0) {
                                updated.insert(cev.depth + 1, i as u32);
                            }
                        }
                    }
                }
            }
        }

        main_core.engine.set_width(cfg.issue_width);
        if sink.enabled() {
            sink.emit(
                main_core.engine.cycle(),
                TraceEvent::Replay {
                    loop_id: sp.loop_idx,
                    fork_cycle: sp.fork_cycle,
                    check_cycle,
                    srb_len: sp.srb.len(),
                    committed: committed_n,
                    reexecuted: reexec_n,
                    reg_violations: trace_regs,
                    mem_violations: trace_addrs,
                },
            );
        }
        // SSB is discarded: replay wrote corrected values to memory
        // directly.
        pool.push(sp);
        Recovered::Rollback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::simulate_baseline;
    use crate::metrics::LoopAnnot;
    use spt_interp::run;
    use spt_mach::RecoveryKind;
    use spt_sir::{BinOp, ProgramBuilder};

    const FUEL: u64 = 5_000_000;

    /// A hand-transformed SPT loop mirroring Figure 1's shape:
    /// independent per-iteration work (on disjoint memory), induction
    /// variable advanced pre-fork -> perfectly parallel iterations.
    ///
    /// for i in 0..n { heavy(i); } with body = `work` dependent ALU ops and
    /// a store to mem[i].
    fn parallel_loop(n: i64, work: usize) -> (Program, LoopAnnotations) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, n);
        f.jmp(body);
        f.switch_to(body);
        // pre-fork: advance the induction variable for the next iteration.
        let cur = f.reg();
        f.mov(cur, i);
        f.addi(i, i, 1);
        f.spt_fork(body);
        // post-fork: serial ALU chain on `cur` then a store (all private).
        let mut acc = f.reg();
        f.mov(acc, cur);
        for _ in 0..work {
            let nx = f.reg();
            f.bin(BinOp::Add, nx, acc, acc);
            acc = nx;
        }
        f.store(acc, cur, 0);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        f.ret(Some(i));
        let id = f.finish();
        let prog = pb.finish(id, n as usize + 4);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        (prog, annots)
    }

    /// A fully serial loop: acc = f(acc) each iteration (cross-iteration
    /// dependence read in the post-fork region -> every thread violated).
    fn serial_loop(n: i64, work: usize) -> (Program, LoopAnnotations) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let acc = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, n);
        f.const_(acc, 1);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        f.spt_fork(body);
        // post-fork: serial chain through acc (cross-iteration).
        for _ in 0..work {
            let one = f.const_reg(1);
            let t = f.reg();
            f.bin(BinOp::Add, t, acc, one);
            f.mov(acc, t);
        }
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        f.ret(Some(acc));
        let id = f.finish();
        let prog = pb.finish(id, 4);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        (prog, annots)
    }

    /// Loop where iteration i stores to mem[i+1] and iteration i+1 loads
    /// mem[i+1] early: a true cross-iteration memory dependence.
    fn chained_store_loop() -> (Program, LoopAnnotations) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, 40);
        f.jmp(body);
        f.switch_to(body);
        let cur = f.reg();
        f.mov(cur, i);
        f.addi(i, i, 1);
        f.spt_fork(body);
        // post-fork: load mem[cur], add 1, store to mem[cur+1].
        let v = f.reg();
        f.load(v, cur, 0);
        let t = f.reg();
        let one = f.const_reg(1);
        f.bin(BinOp::Add, t, v, one);
        f.store(t, cur, 1);
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        let out = f.reg();
        let base40 = f.const_reg(40);
        f.load(out, base40, 0);
        f.ret(Some(out));
        let id = f.finish();
        let prog = pb.finish(id, 64);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        (prog, annots)
    }

    fn cfg_with_cores(cores: usize) -> MachineConfig {
        MachineConfig {
            cores,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn spt_preserves_sequential_semantics_parallel_loop() {
        let (prog, annots) = parallel_loop(50, 8);
        prog.verify().unwrap();
        let (seq, seq_mem) = run(&prog, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert!(!rep.out_of_fuel);
        assert_eq!(rep.ret, seq.ret);
        // Architectural memory must match the sequential run: re-run
        // sequentially and compare a few cells.
        for a in 0..50 {
            let expect = seq_mem.peek(a);
            // The SPT sim consumed its own memory internally; validate via
            // return value + spot behaviour (stores were i*2^work).
            assert_eq!(expect, (a as i64) << 8);
        }
        assert!(rep.forks > 0);
        assert!(
            rep.fast_commit_ratio() > 0.8,
            "parallel loop should fast-commit; ratio = {}",
            rep.fast_commit_ratio()
        );
    }

    #[test]
    fn spt_speeds_up_parallel_loop() {
        let (prog, annots) = parallel_loop(200, 16);
        let base = simulate_baseline(&prog, &MachineConfig::default(), &annots, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, base.ret);
        assert!(
            (rep.cycles as f64) < 0.8 * base.cycles as f64,
            "SPT {} vs baseline {}",
            rep.cycles,
            base.cycles
        );
    }

    #[test]
    fn spt_preserves_semantics_serial_loop() {
        let (prog, annots) = serial_loop(60, 6);
        prog.verify().unwrap();
        let (seq, _) = run(&prog, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, seq.ret);
        assert_eq!(rep.ret, Some(1 + 60 * 6));
        // Serial dependence: replays dominate, not fast commits.
        assert!(rep.replays > 0);
        assert!(
            rep.fast_commit_ratio() < 0.5,
            "ratio = {}",
            rep.fast_commit_ratio()
        );
        assert!(rep.spec_misspec > 0);
    }

    #[test]
    fn serial_loop_not_much_slower_than_baseline() {
        // Selective re-execution should keep the damage bounded.
        let (prog, annots) = serial_loop(100, 6);
        let base = simulate_baseline(&prog, &MachineConfig::default(), &annots, FUEL);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, base.ret);
        assert!(
            (rep.cycles as f64) < 1.6 * base.cycles as f64,
            "SPT {} vs baseline {}",
            rep.cycles,
            base.cycles
        );
    }

    #[test]
    fn kill_on_loop_exit_discards_speculation() {
        let (prog, annots) = parallel_loop(10, 4);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        // The final iteration's speculative thread runs off the loop end and
        // is killed by spt_kill (or superseded by a commit at the exit).
        assert!(rep.kills + rep.divergence_kills >= 1 || rep.forks == rep.fast_commits);
        assert!(!rep.out_of_fuel);
    }

    #[test]
    fn memory_violation_detected_and_repaired() {
        let (prog, annots) = chained_store_loop();
        prog.verify().unwrap();
        let (seq, _) = run(&prog, FUEL);
        assert_eq!(seq.ret, Some(40)); // mem[40] = 40 after the chain
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let rep = sim.run(FUEL);
        assert_eq!(rep.ret, Some(40), "memory dependence must be honored");
        assert!(rep.replays > 0, "violations must trigger replay");
    }

    #[test]
    fn squash_policy_still_correct_but_slower_than_srx() {
        let (prog, annots) = serial_loop(80, 6);
        let mut cfg_squash = MachineConfig::default();
        cfg_squash.recovery = RecoveryKind::Squash;
        let rep_sq = SptSim::new(&prog, cfg_squash, annots.clone()).run(FUEL);
        let rep_srx = SptSim::new(&prog, MachineConfig::default(), annots).run(FUEL);
        assert_eq!(rep_sq.ret, rep_srx.ret);
        assert!(
            rep_sq.cycles >= rep_srx.cycles,
            "squash {} should not beat SRX {}",
            rep_sq.cycles,
            rep_srx.cycles
        );
    }

    #[test]
    fn srx_only_policy_replays_everything() {
        let (prog, annots) = parallel_loop(30, 4);
        let mut cfg = MachineConfig::default();
        cfg.recovery = RecoveryKind::SrxOnly;
        let rep = SptSim::new(&prog, cfg, annots).run(FUEL);
        assert_eq!(rep.fast_commits, 0);
        assert!(rep.replays > 0);
        assert_eq!(rep.ret, Some(30));
    }

    #[test]
    fn mark_based_checking_is_more_conservative() {
        // Value-based checking forgives silent re-writes of the same value;
        // mark-based does not. Loop writes `x = 7` every iteration and the
        // spec thread reads x post-fork.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let i = f.reg();
        let nn = f.reg();
        let x = f.reg();
        let body = f.new_block();
        let exit = f.new_block();
        f.const_(i, 0);
        f.const_(nn, 30);
        f.const_(x, 7);
        f.jmp(body);
        f.switch_to(body);
        f.addi(i, i, 1);
        f.spt_fork(body);
        let y = f.reg();
        f.bin(BinOp::Add, y, x, i); // reads x (live-in)
        f.store(y, i, 0);
        f.const_(x, 7); // main post-fork write, same value
        let c = f.reg();
        f.bin(BinOp::CmpLt, c, i, nn);
        f.br(c, body, exit);
        f.switch_to(exit);
        f.spt_kill();
        f.ret(Some(x));
        let id = f.finish();
        let prog = pb.finish(id, 64);
        let annots = LoopAnnotations {
            loops: vec![LoopAnnot {
                id: 0,
                func: id,
                blocks: vec![BlockId(1)],
                fork_start: Some(BlockId(1)),
            }],
        };
        let rep_val = SptSim::new(&prog, MachineConfig::default(), annots.clone()).run(FUEL);
        let mut cfg_mark = MachineConfig::default();
        cfg_mark.reg_check = RegCheckPolicy::MarkBased;
        let rep_mark = SptSim::new(&prog, cfg_mark, annots).run(FUEL);
        assert_eq!(rep_val.ret, rep_mark.ret);
        assert!(
            rep_val.fast_commits > rep_mark.fast_commits,
            "value-based {} vs mark-based {}",
            rep_val.fast_commits,
            rep_mark.fast_commits
        );
    }

    #[test]
    fn tiny_srb_throttles_speculation() {
        let (prog, annots) = parallel_loop(50, 16);
        let mut cfg_small = MachineConfig::default();
        cfg_small.srb_entries = 8;
        let rep_small = SptSim::new(&prog, cfg_small, annots.clone()).run(FUEL);
        let rep_big = SptSim::new(&prog, MachineConfig::default(), annots).run(FUEL);
        assert_eq!(rep_small.ret, rep_big.ret);
        assert!(
            rep_small.cycles >= rep_big.cycles,
            "small SRB {} vs default {}",
            rep_small.cycles,
            rep_big.cycles
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_fold_matches_report() {
        for (prog, annots) in [serial_loop(60, 6), parallel_loop(50, 8)] {
            let sim = SptSim::new(&prog, MachineConfig::default(), annots);
            let rep = sim.run(FUEL);
            let mut sink = spt_trace::RingBufferSink::unbounded();
            let (rep_t, _) = sim.run_traced(FUEL, &mut sink);
            // Tracing must not perturb timing or results.
            assert_eq!(rep.cycles, rep_t.cycles);
            assert_eq!(rep.instrs, rep_t.instrs);
            assert_eq!(rep.ret, rep_t.ret);
            // Folding the trace reproduces the report's counters.
            let fold = spt_trace::fold(sink.records());
            assert_eq!(fold.forks, rep.forks);
            assert_eq!(fold.forks_ignored, rep.forks_ignored);
            assert_eq!(fold.fast_commits, rep.fast_commits);
            assert_eq!(fold.replays, rep.replays);
            assert_eq!(fold.kills, rep.kills);
            assert_eq!(fold.divergence_kills, rep.divergence_kills);
        }
    }

    #[test]
    fn replay_events_name_the_violating_register() {
        let (prog, annots) = serial_loop(40, 6);
        let sim = SptSim::new(&prog, MachineConfig::default(), annots);
        let mut sink = spt_trace::RingBufferSink::unbounded();
        let (rep, _) = sim.run_traced(FUEL, &mut sink);
        assert!(rep.replays > 0);
        let fold = spt_trace::fold(sink.records());
        let l = &fold.per_loop[0];
        assert!(
            !l.reg_violations.is_empty(),
            "serial loop's cross-iteration register must be reported"
        );
        assert!(l.replay_lengths.count > 0);
        assert!(l.srb_occupancy.count > 0);
    }

    #[test]
    fn report_ratios_well_formed() {
        let (prog, annots) = parallel_loop(40, 8);
        let rep = SptSim::new(&prog, MachineConfig::default(), annots).run(FUEL);
        assert!(rep.fast_commit_ratio() >= 0.0 && rep.fast_commit_ratio() <= 1.0);
        assert!(rep.misspeculation_ratio() >= 0.0 && rep.misspeculation_ratio() <= 1.0);
        assert!(rep.ipc() > 0.0);
        assert_eq!(rep.per_loop.len(), 1);
        assert!(rep.per_loop[0].forks > 0);
        assert!(rep.per_loop[0].cycles > 0);
    }

    // ---- N-core fabric -----------------------------------------------------

    #[test]
    fn fabric_preserves_semantics_at_any_core_count() {
        let (prog, annots) = parallel_loop(50, 8);
        let (seq, seq_mem) = run(&prog, FUEL);
        for cores in [2usize, 3, 4, 8] {
            let sim = SptSim::new(&prog, cfg_with_cores(cores), annots.clone());
            let (rep, mem) = sim.run_traced(FUEL, &mut NullSink);
            assert!(!rep.out_of_fuel, "cores={cores}");
            assert_eq!(rep.ret, seq.ret, "cores={cores}");
            for a in 0..54 {
                assert_eq!(mem.peek(a), seq_mem.peek(a), "cores={cores} addr={a}");
            }
        }
    }

    #[test]
    fn fabric_preserves_semantics_serial_loop_at_n4() {
        // Every iteration violates; replays roll back all ring successors.
        let (prog, annots) = serial_loop(60, 6);
        let rep = SptSim::new(&prog, cfg_with_cores(4), annots).run(FUEL);
        assert_eq!(rep.ret, Some(1 + 60 * 6));
        assert!(rep.replays > 0);
    }

    #[test]
    fn more_cores_do_not_degrade_parallel_loop() {
        let (prog, annots) = parallel_loop(200, 16);
        let rep2 = SptSim::new(&prog, cfg_with_cores(2), annots.clone()).run(FUEL);
        let rep4 = SptSim::new(&prog, cfg_with_cores(4), annots.clone()).run(FUEL);
        let rep8 = SptSim::new(&prog, cfg_with_cores(8), annots).run(FUEL);
        assert_eq!(rep2.ret, rep4.ret);
        assert_eq!(rep2.ret, rep8.ret);
        assert!(
            rep4.cycles <= rep2.cycles,
            "N=4 ({}) must not be slower than N=2 ({})",
            rep4.cycles,
            rep2.cycles
        );
        assert!(
            rep8.cycles <= rep4.cycles,
            "N=8 ({}) must not be slower than N=4 ({})",
            rep8.cycles,
            rep4.cycles
        );
        // Ring forks actually happened.
        assert!(rep4.forks > rep2.forks || rep4.fast_commits > rep2.fast_commits);
    }

    #[test]
    fn ring_forks_traced_and_fold_oracle_holds_at_n4() {
        let (prog, annots) = parallel_loop(80, 8);
        let sim = SptSim::new(&prog, cfg_with_cores(4), annots);
        let mut sink = spt_trace::RingBufferSink::unbounded();
        let (rep, _) = sim.run_traced(FUEL, &mut sink);
        let ring_forks = sink
            .records()
            .filter(|r| matches!(r.ev, TraceEvent::RingFork { .. }))
            .count();
        assert!(ring_forks > 0, "N=4 parallel loop must ring-fork");
        // Every RingFork names a valid speculative core.
        for r in sink.records() {
            if let TraceEvent::RingFork { core, .. } = r.ev {
                assert!((1..4).contains(&core));
            }
        }
        // The fold-vs-report oracle holds with ring forks in the stream.
        let fold = spt_trace::fold(sink.records());
        assert_eq!(fold.forks, rep.forks);
        assert_eq!(fold.fast_commits, rep.fast_commits);
        assert_eq!(fold.replays, rep.replays);
        assert_eq!(fold.kills, rep.kills);
    }

    #[test]
    fn per_core_stats_populated() {
        let (prog, annots) = parallel_loop(50, 8);
        let rep2 = SptSim::new(&prog, cfg_with_cores(2), annots.clone()).run(FUEL);
        assert_eq!(rep2.per_core.len(), 2);
        assert_eq!(rep2.per_core[0].core, 0);
        assert_eq!(rep2.per_core[0].instrs, rep2.instrs);
        assert_eq!(rep2.per_core[0].threads, 0);
        assert_eq!(rep2.per_core[1].threads, rep2.forks);
        assert_eq!(rep2.per_core[1].fast_commits, rep2.fast_commits);
        assert!(rep2.per_core[1].instrs > 0);
        assert!(rep2.spec_core_instr_share() > 0.0);

        let rep4 = SptSim::new(&prog, cfg_with_cores(4), annots).run(FUEL);
        assert_eq!(rep4.per_core.len(), 4);
        let threads: u64 = rep4.per_core.iter().map(|c| c.threads).sum();
        assert_eq!(threads, rep4.forks);
        let outcomes: u64 = rep4
            .per_core
            .iter()
            .map(|c| c.fast_commits + c.replays + c.kills)
            .sum();
        // Every spawned thread is resolved exactly once (commit, replay,
        // squash, divergence, or kill).
        assert_eq!(outcomes, rep4.fast_commits + rep4.replays + rep4.kills);
    }

    #[test]
    fn mark_based_checking_stays_correct_at_n4() {
        let (prog, annots) = parallel_loop(40, 6);
        let mut cfg = cfg_with_cores(4);
        cfg.reg_check = RegCheckPolicy::MarkBased;
        let rep = SptSim::new(&prog, cfg, annots).run(FUEL);
        assert_eq!(rep.ret, Some(40));
    }

    #[test]
    fn cross_thread_memory_dependence_detected_at_n4() {
        // With 4 cores, downstream ring threads load words their
        // predecessors store, exercising the drained-SSB vs LAB check.
        let (prog, annots) = chained_store_loop();
        let rep = SptSim::new(&prog, cfg_with_cores(4), annots).run(FUEL);
        assert_eq!(
            rep.ret,
            Some(40),
            "cross-thread memory dependence must be honored"
        );
    }
}
