//! `socket_scaling`: the multi-core socket sweep.
//!
//! One point is one matrix × kernel × backend × core-count socket run:
//! N ∈ {1, 2, 4, 8} cores × {baseline, VIA, SSR} for SpMV and SpMM, with
//! nnz-balanced row partitions, each stitched output checked against the
//! dense reference. These are the socket calls `multicore_sweep` makes, on
//! [`THREADS`] workers pulling points through `parallel_map` (a closed
//! loop). The workload drives them over its own suites because
//! `multicore_sweep` derives a six-matrix SpMM sub-suite of 128–384 rows,
//! whose cost swings the pass time by half from seed to seed, and
//! regenerates its corpus inside the timed call.
//!
//! It runs only the interpreted path — no verifier, recording, analyzer,
//! memo or store — and is the only workload that drives the shared LLC and
//! DRAM calendar under contention. With no memo on this path, the warm
//! pass simulates everything again.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use via_bench::{parallel_map, ExperimentScale, Suite, CORE_COUNTS};
use via_core::BackendKind;
use via_formats::stats::geomean;
use via_formats::{reference, Csr};
use via_kernels::{spmm, spmv, ssr, KernelRun, Partition, SimContext, Socket};

use crate::probe::{leg_metrics, map_output, probe_leg, LegProfile};
use crate::report::{csr_matches, cycles_digest, vec_matches, Metric};
use crate::run::{
    complete_per_layer, repeat_for, timed, trace_lines, trace_summary, Outcome, Timing, FAMILIES,
    MIN_REPS, THREADS,
};
use crate::stats::median;
use crate::trace::{total_ns, Tracer};

/// Points per timed slice of a pass: a sixth of the grid, a few tenths of
/// a second.
const SLICE_POINTS: usize = 90;

/// The row partitioning every socket uses.
const POLICY: Partition = Partition::NnzBalanced;

/// The SpMV suite for `seed`: thirty matrices (six per structural family)
/// in a narrow size and density band, so the work per pass stays within a
/// few percent from seed to seed.
pub fn spmv_scale(seed: u64) -> ExperimentScale {
    ExperimentScale {
        matrices: 30,
        min_rows: 1152,
        max_rows: 1408,
        density_range: (0.012, 0.018),
        seed,
        threads: THREADS,
    }
}

/// The SpMM suite for `seed`: fifteen smaller matrices (SpMM's dense
/// accumulator costs grow with the square of the row count) in a band
/// narrow enough that the largest VIA SpMM run, which sets the peak
/// resident memory, is about the same size on every seed.
pub fn spmm_scale(seed: u64) -> ExperimentScale {
    ExperimentScale {
        matrices: 15,
        min_rows: 208,
        max_rows: 224,
        density_range: (0.014, 0.016),
        seed: seed ^ 0x5BAA,
        threads: THREADS,
    }
}

/// Which kernel a point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Spmv,
    Spmm,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Spmv => "spmv",
            Kernel::Spmm => "spmm",
        }
    }
}

/// One socket run of the grid.
#[derive(Debug, Clone, Copy)]
struct Point {
    kernel: Kernel,
    matrix: usize,
    backend: BackendKind,
    cores: usize,
}

/// The suites, their dense operands and reference results, and the grid.
#[derive(Debug)]
pub struct Setup {
    spmv: Suite,
    spmm: Suite,
    x: Vec<Vec<f64>>,
    spmv_ref: Vec<Vec<f64>>,
    spmm_ref: Vec<Csr>,
    points: Vec<Point>,
}

/// Generates both suites, their reference outputs and the point grid in
/// canonical order (kernel, matrix, backend, cores).
pub fn setup(seed: u64) -> Setup {
    let spmv = Suite::generate(&spmv_scale(seed));
    let spmm = Suite::generate(&spmm_scale(seed));
    let x: Vec<Vec<f64>> = spmv
        .matrices
        .iter()
        .map(|m| via_formats::gen::dense_vector(m.csr.cols(), m.seed))
        .collect();
    let spmv_ref = spmv
        .matrices
        .iter()
        .zip(&x)
        .map(|(m, x)| reference::spmv(&m.csr, x))
        .collect();
    let spmm_ref = spmm
        .matrices
        .iter()
        .map(|m| reference::spmm_gustavson(&m.csr, &m.csr).expect("square"))
        .collect();
    let mut points = Vec::new();
    for (kernel, n) in [(Kernel::Spmv, spmv.len()), (Kernel::Spmm, spmm.len())] {
        for matrix in 0..n {
            for backend in BackendKind::ALL {
                for cores in CORE_COUNTS {
                    points.push(Point {
                        kernel,
                        matrix,
                        backend,
                        cores,
                    });
                }
            }
        }
    }
    Setup {
        spmv,
        spmm,
        x,
        spmv_ref,
        spmm_ref,
        points,
    }
}

/// What one socket run produced.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    core_cycles: Vec<u64>,
    instructions: u64,
    ok: bool,
}

impl Run {
    fn makespan(&self) -> u64 {
        self.core_cycles.iter().copied().max().unwrap_or(0)
    }
}

fn summarize<T>(run: &via_kernels::SocketRun<T>, ok: bool) -> Run {
    Run {
        core_cycles: run.core_cycles(),
        instructions: run.runs.iter().map(|k| k.stats.instructions).sum(),
        ok,
    }
}

/// Runs one point, checking its stitched output against the reference.
/// `socket` wraps the socket call (the traced run puts a span around it).
fn run_point(
    setup: &Setup,
    p: Point,
    ctx: &SimContext,
    mut socket: impl FnMut(&mut dyn FnMut()),
) -> Run {
    let s = Socket::new(ctx.clone(), p.cores);
    match p.kernel {
        Kernel::Spmv => {
            let a = &setup.spmv.matrices[p.matrix].csr;
            let mut run = None;
            socket(&mut || run = Some(s.spmv(a, &setup.x[p.matrix], p.backend, POLICY)));
            let run = run.expect("the socket call ran");
            summarize(
                &run,
                vec_matches(&run.concat_output(), &setup.spmv_ref[p.matrix]),
            )
        }
        Kernel::Spmm => {
            let a = &setup.spmm.matrices[p.matrix].csr;
            let mut run = None;
            socket(&mut || run = Some(s.spmm(a, a, p.backend, POLICY)));
            let run = run.expect("the socket call ran");
            summarize(
                &run,
                csr_matches(&run.concat_output(), &setup.spmm_ref[p.matrix]),
            )
        }
    }
}

/// One pass over every point on `threads` workers; `None` if a socket
/// run panicked.
fn pass(setup: &Setup, threads: usize) -> (Option<Vec<Run>>, f64) {
    let ctx = SimContext::default();
    timed(|| {
        catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&setup.points, threads, |&p| {
                run_point(setup, p, &ctx, |f| f())
            })
        }))
        .ok()
    })
}

/// One pass over every point on [`THREADS`] workers, in slices of
/// [`SLICE_POINTS`] points timed by `timing`; `None` if a socket run
/// panicked.
fn sliced_pass(setup: &Setup, timing: &mut Timing) -> Option<Vec<Run>> {
    let ctx = SimContext::default();
    let mut runs = Vec::with_capacity(setup.points.len());
    for slice in setup.points.chunks(SLICE_POINTS) {
        runs.extend(timing.slice(|| {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map(slice, THREADS, |&p| run_point(setup, p, &ctx, |f| f()))
            }))
            .ok()
        })?);
    }
    Some(runs)
}

/// Every core's cycles of every point, in canonical order.
fn digest(runs: &[Run]) -> u64 {
    cycles_digest(runs.iter().flat_map(|r| r.core_cycles.iter().copied()))
}

/// The end-to-end run.
pub fn untraced(seed: u64, seconds: f64, _work: &Path) -> Outcome {
    let (setup, mut timing) = Timing::setup(|| setup(seed));
    let points = setup.points.len();
    let mut out = Outcome::default();
    let mut first: Option<Vec<Run>> = None;
    repeat_for(seconds, MIN_REPS, |_| {
        for warm in [false, true] {
            let Some(runs) = sliced_pass(&setup, &mut timing) else {
                timing.discard_pass();
                out.tally.check_many(points as u64, false);
                continue;
            };
            timing.end_pass(points, warm);
            let want = first.get_or_insert_with(|| runs.clone());
            for (got, want) in runs.iter().zip(want.iter()) {
                out.tally.check(got.ok && got == want);
            }
        }
    });
    if let Some(runs) = &first {
        out.lines.push(format!(
            "corpus: {} SpMV + {} SpMM matrices, {points} socket runs per pass",
            setup.spmv.len(),
            setup.spmm.len()
        ));
        out.lines
            .push(format!("cycles_digest = {:016x}", digest(runs)));
    }
    out.lines.extend(timing.lines());
    out.metrics = timing.metrics();
    out
}

/// The traced run: a real pass at [`THREADS`] workers (the reference
/// cycles and the simulated-MIPS counters), one at a single worker (the
/// untraced wall time), then every point on one thread with the socket
/// call in a span and, at one core, the plain single-core kernel probed
/// layer by layer — it must match the one-core socket bit for bit.
/// Repeated until `seconds` have passed.
pub fn traced(seed: u64, seconds: f64, _work: &Path) -> Outcome {
    let setup = setup(seed);
    let mut out = Outcome::default();
    let before = via_sim::telemetry::snapshot();
    let (real, real_s) = pass(&setup, THREADS);
    let counted = via_sim::telemetry::snapshot().since(&before);
    let (_, untraced_s) = pass(&setup, 1);
    let Some(real) = real else {
        out.lines.push("a socket run panicked".into());
        out.tally.check_many(setup.points.len() as u64, false);
        return out;
    };

    let ctx = SimContext::default();
    let mut t = Tracer::new();
    let mut prof = LegProfile::default();
    let mut family_inst: BTreeMap<&str, u64> = BTreeMap::new();
    let mut family_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut per_n_inst, mut per_n_ns) = ([0u64; 4], [0u64; 4]);
    let mut traced_walls = Vec::new();
    repeat_for(seconds, 1, |rep| {
        let (_, wall) = timed(|| {
            t.span("harness.run", |t| {
                t.set_point(0);
                t.span("formats.gen", |_| {
                    std::hint::black_box((
                        Suite::generate(&spmv_scale(seed)),
                        Suite::generate(&spmm_scale(seed)),
                    ))
                });
                for (i, &p) in setup.points.iter().enumerate() {
                    t.set_point(i as u64);
                    let first = t.spans().len();
                    let ci = CORE_COUNTS
                        .iter()
                        .position(|&n| n == p.cores)
                        .expect("grid core count");
                    let run = t.span("harness.point", |t| {
                        let mut socket_ns = 0;
                        let mut run = run_point(&setup, p, &ctx, |f| {
                            let id = t.spans().len();
                            t.span("socket.run", |_| f());
                            socket_ns = t.spans()[id].duration_ns();
                        });
                        per_n_ns[ci] += socket_ns;
                        if p.cores == 1 {
                            run.ok &=
                                single_core_matches(t, &mut prof, &setup, p, &ctx, run.makespan());
                        }
                        run
                    });
                    *family_ns.entry(p.kernel.name()).or_default() +=
                        t.spans()[first].duration_ns();
                    if rep == 0 {
                        *family_inst.entry(p.kernel.name()).or_default() += run.instructions;
                        per_n_inst[ci] += run.instructions;
                        if !out.tally.check(run.ok && run == real[i]) {
                            out.lines.push(format!("point {i}: traced check failed"));
                        }
                    }
                }
            })
        });
        traced_walls.push(wall);
    });

    let spans = t.spans();
    let reps = traced_walls.len() as f64;
    let gen_nnz: f64 = setup
        .spmv
        .matrices
        .iter()
        .chain(&setup.spmm.matrices)
        .map(|m| m.csr.nnz() as f64)
        .sum();
    let convert_nnz: f64 = setup.spmm.matrices.iter().map(|m| m.csr.nnz() as f64).sum();
    let total_family_ns: u64 = family_ns.values().sum();
    let mut metrics = vec![
        Metric::new(
            "formats.gen_ns_per_nnz",
            total_ns(spans, "formats.gen") as f64 / (gen_nnz * reps),
            "ns/nnz",
        ),
        Metric::new(
            "formats.convert_ns_per_nnz",
            total_ns(spans, "formats.convert") as f64 / (convert_nnz * reps),
            "ns/nnz",
        ),
        Metric::new(
            "sim.raw_mips",
            counted.instructions as f64 / real_s / 1e6,
            "MIPS",
        ),
        Metric::new(
            "sim.effective_mips",
            counted.effective_instructions() as f64 / real_s / 1e6,
            "MIPS",
        ),
    ];
    metrics.extend(scaling_metrics(&setup, &real));
    for (ci, n) in CORE_COUNTS.iter().enumerate() {
        metrics.push(Metric::new(
            format!("socket.ns_per_inst.n{n}"),
            per_n_ns[ci] as f64 / (per_n_inst[ci] as f64 * reps).max(1.0),
            "ns/inst",
        ));
    }
    for f in FAMILIES {
        metrics.push(Metric::new(
            format!("kernels.instructions.{f}"),
            family_inst.get(f).copied().unwrap_or(0) as f64,
            "count",
        ));
        metrics.push(Metric::new(
            format!("kernels.host_share.{f}"),
            family_ns.get(f).copied().unwrap_or(0) as f64 / total_family_ns.max(1) as f64,
            "ratio",
        ));
    }
    metrics.extend(leg_metrics(&prof, spans));
    metrics.extend(trace_summary(spans, median(&traced_walls), untraced_s));
    out.lines.extend(trace_lines(spans));
    out.lines
        .push(format!("cycles_digest = {:016x}", digest(&real)));
    out.metrics = complete_per_layer(metrics);
    out.spans = t.spans().to_vec();
    out
}

/// A kernel run without its output (the socket run's output is the one
/// checked against the reference).
fn erase_output<T>(run: KernelRun<T>) -> KernelRun<()> {
    map_output(run, |_| ())
}

/// Probes the plain single-core kernel of a one-core point layer by layer
/// and checks it took exactly the one-core socket's cycles.
fn single_core_matches(
    t: &mut Tracer,
    prof: &mut LegProfile,
    setup: &Setup,
    p: Point,
    ctx: &SimContext,
    makespan: u64,
) -> bool {
    let leg = match p.kernel {
        Kernel::Spmv => {
            let (a, x) = (&setup.spmv.matrices[p.matrix].csr, &setup.x[p.matrix]);
            probe_leg(t, prof, ctx, p.backend, |c| match p.backend {
                BackendKind::Baseline => erase_output(spmv::csr_vec(a, x, c)),
                BackendKind::Via => erase_output(spmv::via_csr(a, x, c)),
                BackendKind::Ssr => erase_output(ssr::spmv_csr(a, x, c)),
            })
        }
        Kernel::Spmm => {
            let a = &setup.spmm.matrices[p.matrix].csr;
            let b_csc =
                (p.backend == BackendKind::Via).then(|| t.span("formats.convert", |_| a.to_csc()));
            probe_leg(t, prof, ctx, p.backend, |c| match p.backend {
                BackendKind::Baseline => erase_output(spmm::gustavson(a, a, c)),
                BackendKind::Via => {
                    erase_output(spmm::via_cam(a, b_csc.as_ref().expect("built"), c))
                }
                BackendKind::Ssr => erase_output(ssr::spmm_gustavson(a, a, c)),
            })
        }
    };
    leg.consistent && leg.cycles == makespan
}

/// `socket.core_imbalance.n8` (mean over 8-core runs of the slowest core
/// over the mean core) and `socket.efficiency.n8` (geomean over
/// matrix × kernel × backend of the 1-to-8-core speedup, over 8), from the
/// real pass.
fn scaling_metrics(setup: &Setup, runs: &[Run]) -> Vec<Metric> {
    let (mut imbalance, mut speedups) = (Vec::new(), Vec::new());
    let mut one_core = 0;
    for (p, r) in setup.points.iter().zip(runs) {
        match p.cores {
            1 => one_core = r.makespan(),
            8 => {
                let mean = r.core_cycles.iter().sum::<u64>() as f64 / r.core_cycles.len() as f64;
                imbalance.push(r.makespan() as f64 / mean.max(1.0));
                speedups.push(one_core as f64 / r.makespan().max(1) as f64);
            }
            _ => {}
        }
    }
    vec![
        Metric::new(
            "socket.core_imbalance.n8",
            imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64,
            "ratio",
        ),
        Metric::new("socket.efficiency.n8", geomean(&speedups) / 8.0, "ratio"),
    ]
}
