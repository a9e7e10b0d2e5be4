//! Differential oracle: random SIR programs are pushed through the full
//! profile → compile → SPT-simulate pipeline and every stage is checked
//! against the reference interpreter running the *original* program.
//!
//! For each generated program the oracle asserts:
//!
//! 1. the transformed program, on the plain interpreter, produces the same
//!    return value, the same final memory image, and the same stream of
//!    architecturally-executed store events (addr, value) as the original;
//! 2. the SPT fabric running the transformed program at N ∈ {2, 4, 8}
//!    cores commits the same return value and final memory image
//!    (speculative stores drain through the SRB, so any mis-commit shows
//!    up here); at every width, untraced runs (block superstepping on) and
//!    traced runs (superstepping bypassed) agree on cycles, counters and
//!    committed memory; and the N=2 machine is bit-deterministic: trace
//!    bytes are stable across runs with no ring-fork events;
//! 3. the baseline single-core simulator running the original program also
//!    matches (its timing model must not perturb architectural state), and
//!    its untraced and traced runs agree the same way.
//!
//! Register state is summarized by the returned checksum: programs xor all
//! live registers into the return value, so a silently-clobbered register
//! diverges the oracle.

use proptest::prelude::*;
use spt::{original_annotations, spt_annotations, CompileOptions, MachineConfig};
use spt_compiler::compile;
use spt_interp::{run_with, Cursor, DecodedProgram, MemoTable, Memory};
use spt_sim::{simulate_baseline_traced, SptSim};
use spt_sir::{BinOp, Program, ProgramBuilder, Reg};
use spt_trace::NullSink;

const FUEL: u64 = 2_000_000;
const N_REGS: u32 = 5;
const MEM: usize = 24;

/// Loop-body statement alphabet, weighted toward memory traffic so the
/// differential actually exercises store buffering and commit.
#[derive(Clone, Debug)]
enum Stmt {
    Alu(u8, u8, u8, u8),
    Load(u8, u8, u8),
    Store(u8, u8, u8),
    GuardedStore(u8, u8, u8, u8),
}

fn stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..6u8, 0..N_REGS as u8, 0..N_REGS as u8, 0..N_REGS as u8)
            .prop_map(|(o, d, a, b)| Stmt::Alu(o, d, a, b)),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..6u8).prop_map(|(d, b, o)| Stmt::Load(d, b, o)),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..6u8).prop_map(|(s, b, o)| Stmt::Store(s, b, o)),
        (0..N_REGS as u8, 0..N_REGS as u8, 0..N_REGS as u8, 0..6u8)
            .prop_map(|(g, s, b, o)| Stmt::GuardedStore(g, s, b, o)),
    ]
}

fn op_of(c: u8) -> BinOp {
    [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Xor,
        BinOp::And,
        BinOp::Or,
        BinOp::Mul,
    ][c as usize % 6]
}

/// A counted loop over a random body; the exit block folds every register
/// and a sample of memory into the returned checksum.
fn build(body: &[Stmt], trip: u8) -> Program {
    let mut pb = ProgramBuilder::new();
    for a in 0..MEM as u64 {
        pb.datum(a, (a as i64 + 3) * 7);
    }
    let mut f = pb.func("main", 0);
    let regs: Vec<Reg> = (0..N_REGS).map(|_| f.reg()).collect();
    let i = f.reg();
    let nn = f.reg();
    let bodyb = f.new_block();
    let exit = f.new_block();
    for (k, r) in regs.iter().enumerate() {
        f.const_(*r, k as i64 + 1);
    }
    f.const_(i, 0);
    f.const_(nn, trip as i64);
    f.jmp(bodyb);
    f.switch_to(bodyb);
    for s in body {
        match *s {
            Stmt::Alu(o, d, a, b) => f.bin(
                op_of(o),
                regs[d as usize % regs.len()],
                regs[a as usize % regs.len()],
                regs[b as usize % regs.len()],
            ),
            Stmt::Load(d, b, o) => f.load(
                regs[d as usize % regs.len()],
                regs[b as usize % regs.len()],
                o as i64,
            ),
            Stmt::Store(s2, b, o) => f.store(
                regs[s2 as usize % regs.len()],
                regs[b as usize % regs.len()],
                o as i64,
            ),
            Stmt::GuardedStore(g, s2, b, o) => {
                f.guard_when(regs[g as usize % regs.len()]);
                f.store(
                    regs[s2 as usize % regs.len()],
                    regs[b as usize % regs.len()],
                    o as i64,
                );
                f.unguard();
            }
        }
    }
    f.addi(i, i, 1);
    let c = f.reg();
    f.bin(BinOp::CmpLt, c, i, nn);
    f.br(c, bodyb, exit);
    f.switch_to(exit);
    let sum = f.reg();
    f.const_(sum, 0);
    for r in &regs {
        let t = f.reg();
        f.bin(BinOp::Xor, t, sum, *r);
        f.mov(sum, t);
    }
    for a in 0..6i64 {
        let base = f.const_reg(a * 7 % MEM as i64);
        let v = f.reg();
        f.load(v, base, 0);
        let t = f.reg();
        f.bin(BinOp::Add, t, sum, v);
        f.mov(sum, t);
    }
    f.ret(Some(sum));
    let id = f.finish();
    pb.finish(id, MEM)
}

fn lenient_opts() -> CompileOptions {
    let mut o = CompileOptions::default();
    o.min_coverage = 0.0;
    o.min_trip = 1.0;
    o.min_body = 1.0;
    o.min_speedup = 0.0;
    o.profile_fuel = FUEL;
    o
}

fn words(mem: &Memory) -> Vec<i64> {
    (0..mem.len() as u64).map(|a| mem.peek(a)).collect()
}

/// Architecturally-executed store events, in program order.
fn store_trace(prog: &Program, fuel: u64) -> (Option<i64>, Vec<i64>, Vec<(u64, i64)>) {
    let mut stores = Vec::new();
    let (res, mem) = run_with(prog, fuel, |ev| {
        if ev.executed {
            if let Some(m) = ev.mem {
                if m.is_store {
                    stores.push((m.addr, m.value));
                }
            }
        }
    });
    assert!(!res.out_of_fuel, "reference run must terminate");
    (res.ret, words(&mem), stores)
}

/// Like [`store_trace`], but the cursor supersteps through a block memo
/// wherever possible (superstep-on interpretation of the same program).
fn superstepped_store_trace(prog: &Program, fuel: u64) -> (Option<i64>, Vec<i64>, Vec<(u64, i64)>) {
    let dec = DecodedProgram::new(prog);
    let mut cur = Cursor::at_entry(&dec);
    let mut mem = Memory::for_program(prog);
    let mut memo = MemoTable::new(dec.n_flat_blocks() as usize);
    let mut stores = Vec::new();
    let mut steps = 0u64;
    while steps < fuel {
        let n = cur.superstep(&mut mem, &mut memo, fuel - steps, &mut |ev| {
            if ev.executed {
                if let Some(m) = ev.mem {
                    if m.is_store {
                        stores.push((m.addr, m.value));
                    }
                }
            }
        });
        if n > 0 {
            steps += n;
            continue;
        }
        let Some(ev) = cur.step(&mut mem) else { break };
        steps += 1;
        if ev.executed {
            if let Some(m) = ev.mem {
                if m.is_store {
                    stores.push((m.addr, m.value));
                }
            }
        }
    }
    assert!(cur.is_halted(), "superstepped run must terminate");
    (cur.return_value(), words(&mem), stores)
}

/// The full oracle on one concrete program.
///
/// `ctx` (the generated body and trip count, `Debug`-printed) is woven
/// into every assertion message so a proptest failure reproduces in one
/// command: paste the printed body/trip into a deterministic
/// `check_differential` call like the fixed smoke cases below.
fn check_differential(body: &[Stmt], trip: u8) {
    let ctx = format!("body={body:?} trip={trip}");
    let prog = build(body, trip);
    prog.verify().unwrap();

    // Stage 0: the reference — sequential interpretation of the original.
    let (ref_ret, ref_mem, ref_stores) = store_trace(&prog, FUEL);

    // Stage 1: compile, then re-interpret the transformed program.
    let compiled = compile(&prog, &lenient_opts());
    compiled.program.verify().unwrap();
    let (t_ret, t_mem, t_stores) = store_trace(&compiled.program, FUEL);
    assert_eq!(t_ret, ref_ret, "transformed return value diverged [{ctx}]");
    assert_eq!(t_mem, ref_mem, "transformed final memory diverged [{ctx}]");
    assert_eq!(
        t_stores, ref_stores,
        "transformed store stream diverged [{ctx}]"
    );

    // Stage 1b: superstep-on interpretation (block memo replay) of both
    // programs is indistinguishable from stepping: same return value, same
    // memory image, same architecturally-executed store stream.
    let (ss_ret, ss_mem, ss_stores) = superstepped_store_trace(&prog, FUEL);
    assert_eq!(
        ss_ret, ref_ret,
        "superstepped return value diverged [{ctx}]"
    );
    assert_eq!(
        ss_mem, ref_mem,
        "superstepped final memory diverged [{ctx}]"
    );
    assert_eq!(
        ss_stores, ref_stores,
        "superstepped store stream diverged [{ctx}]"
    );
    let (ss_ret, ss_mem, ss_stores) = superstepped_store_trace(&compiled.program, FUEL);
    assert_eq!(
        ss_ret, t_ret,
        "superstepped transformed return value diverged [{ctx}]"
    );
    assert_eq!(
        ss_mem, t_mem,
        "superstepped transformed memory diverged [{ctx}]"
    );
    assert_eq!(
        ss_stores, t_stores,
        "superstepped transformed store stream diverged [{ctx}]"
    );

    // Stage 2: the SPT fabric on the transformed program, at every fabric
    // width. N=2 is the paper machine; wider rings must commit the same
    // architectural state. Each width runs untraced (main-thread block
    // supersteps through the memo) and traced (the memo is bypassed, so
    // every step goes through the interpreter's native path): the two
    // must agree on every reported number and on committed memory.
    let machine = MachineConfig::default();
    let annots = spt_annotations(&compiled);
    let mut n2_trace = String::new();
    for cores in [2usize, 4, 8] {
        let mut m = machine.clone();
        m.cores = cores;
        let sim = SptSim::new(&compiled.program, m, annots.clone());
        let (spt_rep, spt_mem) = sim.run_traced(FUEL, &mut NullSink);
        assert!(
            !spt_rep.out_of_fuel,
            "SPT simulation must terminate (cores={cores}) [{ctx}]"
        );
        assert_eq!(
            spt_rep.ret, ref_ret,
            "SPT-committed return value diverged (cores={cores}) [{ctx}]"
        );
        assert_eq!(
            words(&spt_mem),
            ref_mem,
            "SPT-committed memory diverged (cores={cores}) [{ctx}]"
        );
        let mut sink = spt_trace::RingBufferSink::unbounded();
        let (tr_rep, tr_mem) = sim.run_traced(FUEL, &mut sink);
        assert_eq!(
            (tr_rep.cycles, tr_rep.instrs, tr_rep.ret),
            (spt_rep.cycles, spt_rep.instrs, spt_rep.ret),
            "traced run changed timing or result (cores={cores}) [{ctx}]"
        );
        assert_eq!(
            (
                tr_rep.forks,
                tr_rep.fast_commits,
                tr_rep.replays,
                tr_rep.kills,
                tr_rep.divergence_kills,
                tr_rep.spec_misspec,
            ),
            (
                spt_rep.forks,
                spt_rep.fast_commits,
                spt_rep.replays,
                spt_rep.kills,
                spt_rep.divergence_kills,
                spt_rep.spec_misspec,
            ),
            "traced run changed speculation counters (cores={cores}) [{ctx}]"
        );
        assert_eq!(
            words(&tr_mem),
            words(&spt_mem),
            "traced run changed committed memory (cores={cores}) [{ctx}]"
        );
        assert_eq!(
            (tr_rep.superstep_hits, tr_rep.superstep_misses),
            (0, 0),
            "traced run must not touch the memo (cores={cores}) [{ctx}]"
        );
        if cores == 2 {
            n2_trace = sink.records().map(spt_trace::jsonl).collect();
        }
    }

    // Stage 2b: the N=2 fabric is bit-identical to the default machine —
    // same trace bytes on a second traced run. (MachineConfig's default
    // IS two cores, so this pins the fabric generalization to the
    // dual-pipeline behaviour the goldens were recorded against.)
    let sim = SptSim::new(&compiled.program, machine.clone(), annots.clone());
    let mut sink = spt_trace::RingBufferSink::unbounded();
    let _ = sim.run_traced(FUEL, &mut sink);
    let bytes: String = sink.records().map(spt_trace::jsonl).collect();
    assert_eq!(
        bytes, n2_trace,
        "N=2 trace bytes must be deterministic [{ctx}]"
    );
    // No ring-fork events may ever appear on the two-core machine.
    assert!(
        !bytes.contains("ring_fork"),
        "N=2 must never emit ring forks [{ctx}]"
    );

    // Stage 3: the baseline timing model on the original program, untraced
    // (memo on) and traced (memo bypassed).
    let base_annots = original_annotations(&prog, &compiled);
    let (base_rep, base_mem) =
        simulate_baseline_traced(&prog, &machine, &base_annots, FUEL, &mut NullSink);
    assert!(
        !base_rep.out_of_fuel,
        "baseline simulation must terminate [{ctx}]"
    );
    assert_eq!(
        base_rep.ret, ref_ret,
        "baseline return value diverged [{ctx}]"
    );
    assert_eq!(
        words(&base_mem),
        ref_mem,
        "baseline final memory diverged [{ctx}]"
    );
    let mut sink = spt_trace::RingBufferSink::unbounded();
    let (tr_rep, tr_mem) = simulate_baseline_traced(&prog, &machine, &base_annots, FUEL, &mut sink);
    assert_eq!(
        (tr_rep.cycles, tr_rep.instrs, tr_rep.ret),
        (base_rep.cycles, base_rep.instrs, base_rep.ret),
        "traced run changed baseline timing or result [{ctx}]"
    );
    assert_eq!(
        (tr_rep.bp_mispredicts, tr_rep.bp_lookups, tr_rep.cache),
        (base_rep.bp_mispredicts, base_rep.bp_lookups, base_rep.cache),
        "traced run changed baseline counters [{ctx}]"
    );
    assert_eq!(
        words(&tr_mem),
        words(&base_mem),
        "traced run changed baseline memory [{ctx}]"
    );
    assert_eq!(
        (tr_rep.superstep_hits, tr_rep.superstep_misses),
        (0, 0),
        "traced baseline must not touch the memo [{ctx}]"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random store-heavy loops agree across interp, compiled interp,
    /// SPT machine, and baseline machine.
    #[test]
    fn pipeline_matches_reference_interpreter(
        body in prop::collection::vec(stmt(), 1..12),
        trip in 1..15u8,
    ) {
        check_differential(&body, trip);
    }
}

/// Deterministic smoke case: a store-per-iteration reduction loop.
#[test]
fn differential_fixed_store_loop() {
    check_differential(
        &[
            Stmt::Load(0, 1, 2),
            Stmt::Alu(0, 1, 0, 2),
            Stmt::Store(1, 3, 1),
            Stmt::GuardedStore(2, 0, 4, 3),
        ],
        9,
    );
}

/// Deterministic smoke case: guarded stores only fire on some iterations.
#[test]
fn differential_fixed_guarded_loop() {
    check_differential(
        &[
            Stmt::Alu(2, 3, 3, 1),
            Stmt::GuardedStore(3, 2, 0, 1),
            Stmt::Load(4, 2, 0),
            Stmt::Alu(1, 0, 4, 3),
        ],
        12,
    );
}
