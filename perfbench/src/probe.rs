//! Layer probes for one kernel leg, used by every workload's traced run.
//!
//! A *leg* is one kernel run on one engine shape (a baseline, VIA or SSR
//! kernel, or one tuner variant). Its probe calls each layer's public entry
//! point separately, inside its own span:
//!
//! | span | call | layer |
//! |---|---|---|
//! | `kernels.run` | the kernel function on a plain context (emission, functional model, timing) | `via_kernels` + `via_core` |
//! | `compile.record` | the same kernel with stream recording on | `via_sim::compile` |
//! | `verify.program` | `verify_program` over the recorded stream | `via_sim::verify` |
//! | `engine.replay` | `Engine::replay` of the stream on a fresh engine | `via_sim::engine` |
//! | `engine.replay_accounting` | the same replay with stall accounting on | `via_sim::engine` |
//! | `mem.hierarchy` | a standalone `Hierarchy` driven with the stream's addresses | `via_sim::mem` |
//!
//! Differences of these spans give the per-instruction layer costs
//! (emission = run − replay; recording = recorded run − run − verify). Every probe also checks the leg: all four simulations must
//! report the same cycles, and the verifier must find no errors.

use via_core::BackendKind;
use via_kernels::{KernelRun, SimContext, TraceOptions};
use via_sim::mem::Hierarchy;
use via_sim::prog::Op;
use via_sim::trace::CAUSE_COUNT;
use via_sim::verify::{verify_program, Program, VerifyConfig};
use via_sim::{CompiledStream, Inst, StallCause};

use crate::trace::{total_ns, Span, Tracer};

/// Accumulated layer measurements over any number of legs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LegProfile {
    /// Legs probed.
    pub legs: u64,
    /// Simulated instructions over all legs.
    pub instructions: u64,
    /// Simulated cycles over all legs.
    pub cycles: u64,
    /// Verifier errors (must stay 0).
    pub verify_errors: u64,
    /// Bytes of recorded stream (instructions plus region events).
    pub stream_bytes: u64,
    /// Memory accesses the standalone hierarchy walk performed.
    pub mem_accesses: u64,
    /// Attributed cycles per stall cause, indexed like [`StallCause::ALL`].
    pub stall: [u64; CAUSE_COUNT],
    /// L1/L2/L3 hits of the recorded runs.
    pub cache_hits: [u64; 3],
    /// L1/L2/L3 accesses of the recorded runs.
    pub cache_accesses: [u64; 3],
    /// DRAM bytes read and written by the recorded runs.
    pub dram_bytes: u64,
}

/// What a probed leg produced.
#[derive(Debug)]
pub struct Leg<T> {
    /// The plain run's output (for the reference check).
    pub output: T,
    /// The plain run's simulated cycles.
    pub cycles: u64,
    /// The plain run's simulated instructions.
    pub instructions: u64,
    /// The recorded stream.
    pub stream: CompiledStream,
    /// Whether every cycle count agreed and the verifier found no error.
    pub consistent: bool,
}

/// Probes one leg. `run` is the kernel call; `backend` is the engine shape
/// that kernel runs on, used for the replays and the verifier's machine
/// limits.
pub fn probe_leg<T>(
    t: &mut Tracer,
    prof: &mut LegProfile,
    ctx: &SimContext,
    backend: BackendKind,
    run: impl Fn(&SimContext) -> KernelRun<T>,
) -> Leg<T> {
    let plain = t.span("kernels.run", |_| run(ctx));
    let recorded = t.span("compile.record", |_| run(&ctx.clone().with_recording()));
    let stream = recorded
        .compiled
        .expect("a recording context returns the compiled stream");
    let (program, verify_cfg) = t.span("harness.program_copy", |_| {
        let program: Program = stream.insts().iter().cloned().collect();
        let cfg = VerifyConfig::from_core(&backend.shape_core(ctx.core.clone()));
        (program, cfg)
    });
    let report = t.span("verify.program", |_| verify_program(&program, &verify_cfg));
    drop(program);
    let replayed = t.span("engine.replay", |_| {
        let mut e = ctx.backend_engine(backend);
        e.replay(&stream);
        e.finish()
    });
    let (accounted, stalls) = t.span("engine.replay_accounting", |_| {
        let mut e = ctx
            .clone()
            .with_trace(TraceOptions::accounting())
            .backend_engine(backend);
        e.replay(&stream);
        let report = e.stall_report().expect("stall accounting is on");
        (e.finish(), report)
    });
    let accesses = t.span("mem.hierarchy", |_| walk_addresses(ctx, stream.insts()));

    let errors = (report.error_count() + stream.verify().error_count()) as u64;
    let cycles = plain.stats.cycles;
    let agree =
        recorded.stats.cycles == cycles && replayed.cycles == cycles && accounted.cycles == cycles;
    prof.legs += 1;
    prof.instructions += plain.stats.instructions;
    prof.cycles += cycles;
    prof.verify_errors += errors;
    prof.stream_bytes += stream_bytes(&stream);
    prof.mem_accesses += accesses;
    for (slot, cause) in prof.stall.iter_mut().zip(StallCause::ALL) {
        *slot += stalls.cause_total(cause);
    }
    let s = &recorded.stats;
    for (i, level) in [s.l1, s.l2, s.l3].iter().enumerate() {
        prof.cache_hits[i] += level.hits;
        prof.cache_accesses[i] += level.accesses();
    }
    prof.dram_bytes += s.dram_bytes();
    Leg {
        output: plain.output,
        cycles,
        instructions: plain.stats.instructions,
        stream,
        consistent: agree && errors == 0,
    }
}

/// The same run with its output mapped through `f`.
pub fn map_output<T, U>(run: KernelRun<T>, f: impl FnOnce(T) -> U) -> KernelRun<U> {
    KernelRun {
        output: f(run.output),
        stats: run.stats,
        sspm_events: run.sspm_events,
        stall: run.stall,
        chrome: run.chrome,
        compiled: run.compiled,
    }
}

/// Bytes a recorded stream occupies: `size_of::<Inst>()` per instruction
/// plus its region/marker events (spilled address lists excluded).
fn stream_bytes(stream: &CompiledStream) -> u64 {
    (stream.len() * std::mem::size_of::<Inst>() + std::mem::size_of_val(stream.events())) as u64
}

/// Drives a fresh, standalone cache hierarchy with every address the
/// stream touches (unit-stride accesses split into lines, one access per
/// gather/scatter element), one access per cycle. Returns the number of
/// accesses.
fn walk_addresses(ctx: &SimContext, insts: &[Inst]) -> u64 {
    let mut h = Hierarchy::new(ctx.mem.clone());
    let line = ctx.mem.l1.line_bytes as u64;
    let mut now = 0u64;
    let mut touch = |h: &mut Hierarchy, addr: u64, write: bool| {
        std::hint::black_box(h.access(addr, write, now));
        now += 1;
    };
    for inst in insts {
        match &inst.op {
            Op::Load { addr, bytes } | Op::Store { addr, bytes } => {
                let write = matches!(inst.op, Op::Store { .. });
                let last = (addr + u64::from((*bytes).max(1)) - 1) & !(line - 1);
                let mut piece = addr & !(line - 1);
                loop {
                    touch(&mut h, piece, write);
                    if piece >= last {
                        break;
                    }
                    piece += line;
                }
            }
            Op::Gather { addrs, .. } => {
                for &a in addrs.as_slice() {
                    touch(&mut h, a, false);
                }
            }
            Op::Scatter { addrs, .. } => {
                for &a in addrs.as_slice() {
                    touch(&mut h, a, true);
                }
            }
            _ => {}
        }
    }
    now
}

/// The per-layer metrics a set of probed legs yields, from the profile and
/// the spans the probes recorded.
pub fn leg_metrics(prof: &LegProfile, spans: &[Span]) -> Vec<crate::report::Metric> {
    use crate::report::Metric;
    let inst = prof.instructions.max(1) as f64;
    let ns = |name: &str| total_ns(spans, name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (run, rec, ver, rep, acc, mem) = (
        ns("kernels.run"),
        ns("compile.record"),
        ns("verify.program"),
        ns("engine.replay"),
        ns("engine.replay_accounting"),
        ns("mem.hierarchy"),
    );
    let mut out = vec![
        Metric::new("kernels.emit_ns_per_inst", (run - rep) / inst, "ns/inst"),
        Metric::new("verify.ns_per_inst", ver / inst, "ns/inst"),
        Metric::new("verify.errors", prof.verify_errors as f64, "count"),
        Metric::new(
            "compile.record_ns_per_inst",
            (rec - run - ver) / inst,
            "ns/inst",
        ),
        Metric::new(
            "compile.stream_bytes_per_inst",
            prof.stream_bytes as f64 / inst,
            "B/inst",
        ),
        Metric::new("engine.replay_ns_per_inst", rep / inst, "ns/inst"),
        Metric::new(
            "engine.stall_accounting_overhead",
            ratio(acc - rep, rep),
            "ratio",
        ),
        Metric::new("engine.cpi", prof.cycles as f64 / inst, "cycles/inst"),
    ];
    for (cause, &cycles) in StallCause::ALL.iter().zip(&prof.stall) {
        out.push(Metric::new(
            format!("engine.cpi.{}", cause.name()),
            cycles as f64 / inst,
            "cycles/inst",
        ));
    }
    let hit = |i: usize| ratio(prof.cache_hits[i] as f64, prof.cache_accesses[i] as f64);
    let dram_wait = prof.stall[StallCause::DramBandwidth as usize] as f64;
    out.extend([
        Metric::new("mem.access_ns", ratio(mem, prof.mem_accesses as f64), "ns"),
        Metric::new("mem.l1_hit_ratio", hit(0), "ratio"),
        Metric::new("mem.l2_hit_ratio", hit(1), "ratio"),
        Metric::new("mem.l3_hit_ratio", hit(2), "ratio"),
        Metric::new(
            "mem.dram_bytes_per_inst",
            prof.dram_bytes as f64 / inst,
            "B/inst",
        ),
        Metric::new(
            "mem.dram_wait_share",
            ratio(dram_wait, prof.cycles as f64),
            "ratio",
        ),
    ]);
    out
}
