//! Per-run simulator state reuse (DESIGN.md §3i).
//!
//! [`SimArena`] owns every heap structure a simulation run needs —
//! architectural [`Memory`], cursor register-file slabs ([`CursorParts`]),
//! [`CacheSim`] level vectors, pipeline cores (scoreboard frame slots +
//! predictor tables), the speculative-thread buffer pool ([`SpecBufs`]),
//! and the superstep [`MemoTable`] — so a sweep worker can run many
//! (program, config, fuel) items without reconstructing any of them.
//! Components are *checked out* at run start (`take_*`) and returned at
//! run end (`put_*`); every checkout either pops a retained component and
//! resets it, or constructs a fresh one. The checkout protocol is private
//! to this crate: callers see [`SimArena::new`] and the run entry points
//! that take one (`SptSim::run_in`, `simulate_baseline_in`), or use the
//! thread's own arena implicitly.
//!
//! **Bit-identical by construction:** each component's reset is
//! observationally equal to fresh construction (epoch/generation bumps
//! where the structure is stamped — `Ssb`, scoreboard, memo table —
//! explicit clear+refill elsewhere; see each component's `reset` doc). A
//! fresh arena's takes all construct fresh state through the same
//! functions, which is what the reset-vs-fresh lockstep suite
//! (`tests/arena_equiv.rs`) compares.

use crate::pipeline::PipelineCore;
use crate::specset::{AddrList, AddrMembers, RegSet};
use crate::ssb::Ssb;
use spt_interp::{CursorParts, Event, MemoTable, Memory};
use spt_mach::{CacheSim, MachineConfig};
use spt_sir::Program;
use spt_trace::Pipe;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Components handed out from a retained allocation (reset, not rebuilt).
static ARENA_REUSE: AtomicU64 = AtomicU64::new(0);
/// Components constructed fresh (empty arena or first run).
static ARENA_FRESH: AtomicU64 = AtomicU64::new(0);
/// Approximate bytes currently retained across all live arenas.
static ARENA_RETAINED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the arena telemetry counters (`spt-serve` `/metrics`,
/// `spt-top`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Component checkouts served from a retained allocation.
    pub reuse: u64,
    /// Component checkouts that constructed fresh state.
    pub fresh: u64,
    /// Approximate bytes retained across all live arenas right now.
    pub retained_bytes: u64,
}

/// Read the process-wide arena telemetry counters.
pub fn arena_stats() -> ArenaStats {
    ArenaStats {
        reuse: ARENA_REUSE.load(Ordering::Relaxed),
        fresh: ARENA_FRESH.load(Ordering::Relaxed),
        retained_bytes: ARENA_RETAINED_BYTES.load(Ordering::Relaxed),
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<SimArena> = RefCell::new(SimArena::new());
}

/// Run `f` with this thread's long-lived arena. Re-entrant calls (an
/// arena-routed run starting another inside `f`) fall back to an isolated
/// temporary arena rather than aliasing the borrowed one.
pub(crate) fn with_thread_arena<R>(f: impl FnOnce(&mut SimArena) -> R) -> R {
    THREAD_ARENA.with(|a| match a.try_borrow_mut() {
        Ok(mut arena) => f(&mut arena),
        Err(_) => f(&mut SimArena::new()),
    })
}

/// The heap buffers of one finished speculative thread, detached from the
/// run's decoded-program borrow so they can persist across runs. Contents
/// are dead; the SPT fork path clears every field before reuse (exactly
/// as it does for its within-run pool).
pub(crate) struct SpecBufs {
    pub(crate) cursor: CursorParts,
    pub(crate) ssb: Ssb,
    pub(crate) lab: AddrMembers,
    pub(crate) srb: Vec<Event>,
    pub(crate) live_in_reads: RegSet,
    pub(crate) live_in_vals: Vec<(u32, i64)>,
    pub(crate) spec_written: RegSet,
    pub(crate) post_fork_writes: RegSet,
    pub(crate) violated_addrs: AddrList,
}

impl SpecBufs {
    fn approx_bytes(&self) -> usize {
        self.cursor.approx_bytes()
            + self.ssb.approx_bytes()
            + self.srb.capacity() * std::mem::size_of::<Event>()
            + self.live_in_vals.capacity() * std::mem::size_of::<(u32, i64)>()
    }
}

/// Reusable simulator state for one worker thread (see module docs).
#[derive(Default)]
pub struct SimArena {
    mem: Option<Memory>,
    cache: Option<CacheSim>,
    cores: Vec<PipelineCore>,
    cursor_parts: Vec<CursorParts>,
    spec_bufs: Vec<SpecBufs>,
    memo: Option<MemoTable>,
    /// Retained-bytes figure last published to the global gauge.
    published_bytes: u64,
}

impl SimArena {
    pub fn new() -> Self {
        SimArena::default()
    }

    fn reused() {
        ARENA_REUSE.fetch_add(1, Ordering::Relaxed);
    }

    fn constructed() {
        ARENA_FRESH.fetch_add(1, Ordering::Relaxed);
    }

    /// Architectural memory in exactly [`Memory::for_program`]`(prog)`
    /// state.
    pub(crate) fn take_mem(&mut self, prog: &Program) -> Memory {
        match self.mem.take() {
            Some(mut m) => {
                Self::reused();
                m.reset_for(prog);
                m
            }
            None => {
                Self::constructed();
                Memory::for_program(prog)
            }
        }
    }

    pub(crate) fn put_mem(&mut self, mem: Memory) {
        self.mem = Some(mem);
    }

    /// Cache hierarchy in exactly [`CacheSim::new`]`(cfg)` state.
    pub(crate) fn take_cache(&mut self, cfg: &MachineConfig) -> CacheSim {
        match self.cache.take() {
            Some(mut c) => {
                Self::reused();
                c.reset(cfg);
                c
            }
            None => {
                Self::constructed();
                CacheSim::new(cfg)
            }
        }
    }

    pub(crate) fn put_cache(&mut self, cache: CacheSim) {
        self.cache = Some(cache);
    }

    /// Pipeline core in exactly [`PipelineCore::new`]`(cfg, pipe)` state.
    pub(crate) fn take_core(&mut self, cfg: &MachineConfig, pipe: Pipe) -> PipelineCore {
        match self.cores.pop() {
            Some(mut c) => {
                Self::reused();
                c.reset(cfg, pipe);
                c
            }
            None => {
                Self::constructed();
                PipelineCore::new(cfg, pipe)
            }
        }
    }

    pub(crate) fn put_core(&mut self, core: PipelineCore) {
        self.cores.push(core);
    }

    /// Cursor heap buffers (empty from the caller's perspective; the
    /// cursor constructors clear before refilling).
    pub(crate) fn take_cursor_parts(&mut self) -> CursorParts {
        match self.cursor_parts.pop() {
            Some(p) => {
                Self::reused();
                p
            }
            None => {
                Self::constructed();
                CursorParts::default()
            }
        }
    }

    pub(crate) fn put_cursor_parts(&mut self, parts: CursorParts) {
        self.cursor_parts.push(parts);
    }

    /// Superstep memo table observationally equal to
    /// [`MemoTable::new`]`(capacity)`.
    pub(crate) fn take_memo(&mut self, capacity: usize) -> MemoTable {
        match self.memo.take() {
            Some(mut m) => {
                Self::reused();
                m.reset(capacity);
                m
            }
            None => {
                Self::constructed();
                MemoTable::new(capacity)
            }
        }
    }

    pub(crate) fn put_memo(&mut self, memo: MemoTable) {
        self.memo = Some(memo);
    }

    /// One retained speculative-thread buffer set, if any. Counted on the
    /// fork path by the caller (a miss there falls through to the
    /// fresh-construction arm, which counts itself).
    pub(crate) fn take_spec_bufs_pool(&mut self) -> Vec<SpecBufs> {
        std::mem::take(&mut self.spec_bufs)
    }

    pub(crate) fn put_spec_bufs_pool(&mut self, bufs: Vec<SpecBufs>) {
        self.spec_bufs = bufs;
    }

    fn approx_retained_bytes(&self) -> u64 {
        let mut b = 0usize;
        if let Some(m) = &self.mem {
            b += m.approx_bytes();
        }
        if let Some(c) = &self.cache {
            b += c.approx_bytes();
        }
        for c in &self.cores {
            b += c.approx_bytes();
        }
        for p in &self.cursor_parts {
            b += p.approx_bytes();
        }
        for s in &self.spec_bufs {
            b += s.approx_bytes();
        }
        if let Some(m) = &self.memo {
            b += m.approx_bytes();
        }
        b as u64
    }

    /// Re-publish this arena's retained-bytes estimate to the global gauge
    /// (called at run end, after put-backs).
    pub(crate) fn publish_retained(&mut self) {
        let now = self.approx_retained_bytes();
        let delta = now.wrapping_sub(self.published_bytes);
        ARENA_RETAINED_BYTES.fetch_add(delta, Ordering::Relaxed);
        self.published_bytes = now;
    }
}

impl Drop for SimArena {
    fn drop(&mut self) {
        // Keep the global gauge honest when a worker thread (and its
        // thread-local arena) exits.
        ARENA_RETAINED_BYTES.fetch_sub(self.published_bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_sir::ProgramBuilder;

    fn tiny_prog(mem_words: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        pb.datum(1, 41);
        let mut f = pb.func("m", 0);
        f.ret(None);
        let id = f.finish();
        pb.finish(id, mem_words)
    }

    #[test]
    fn take_mem_matches_fresh_construction() {
        let p8 = tiny_prog(8);
        let p4 = tiny_prog(4);
        let mut a = SimArena::new();
        let m = a.take_mem(&p8);
        assert_eq!(m, Memory::for_program(&p8));
        a.put_mem(m);
        // Shrinking program: retained memory must not leak old size or data.
        let m = a.take_mem(&p4);
        assert_eq!(m, Memory::for_program(&p4));
    }

    #[test]
    fn retained_bytes_accounting_is_symmetric() {
        // The global gauge is shared with concurrently-running tests, so
        // assert on this arena's own published figure: publish records the
        // estimate it added, and Drop withdraws exactly that amount.
        let mut a = SimArena::new();
        a.put_mem(Memory::for_program(&tiny_prog(1024)));
        a.publish_retained();
        assert!(a.published_bytes >= 1024 * 8);
        a.put_cache(CacheSim::new(&MachineConfig::default()));
        a.publish_retained();
        assert!(a.published_bytes > 1024 * 8);
    }
}
