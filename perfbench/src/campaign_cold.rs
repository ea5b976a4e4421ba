//! `campaign_cold`: the paper-reproduction sweep as users run it.
//!
//! One point is one matrix × kernel-pair job. The timed phase runs
//! `run_campaign` in `Mode::Fresh` into an empty store over a stratified
//! synthetic corpus, all six kernel pairs, SSR backend leg on, on
//! [`THREADS`] workers (the campaign's own closed-loop scheduler: a worker
//! claims its next job when its last one finishes). Every job emits,
//! verifies, records and times the baseline, VIA and SSR streams and
//! appends rows to the store; there are no memo hits and no analyzer.
//!
//! The end-to-end run times its cold pass in slices: each corpus runs in
//! `SHARDS` shards, each into its own empty store. The warm pass repeats
//! the same jobs, one campaign per corpus, into empty stores seeded with
//! the cold stores' `cycles.jsonl` (the persistent cycle memo), so every
//! job resolves from the memo without simulating.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use via_bench::campaign::{cycles_path, load_results, run_with_budget, ResultRow, ShardSpec};
use via_bench::paper::claim;
use via_bench::{run_campaign, CampaignConfig, Corpus, KernelKind, Mode};
use via_core::{BackendKind, ViaConfig};
use via_formats::gen::{self, stratified_specs, MatrixSpec, StratifiedConfig};
use via_formats::{reference, Csb, Csc, Csr, SellCSigma, Spc5};
use via_kernels::{spma, spmm, spmv, ssr, KernelRun, SimContext};

use crate::probe::{leg_metrics, map_output, probe_leg, LegProfile};
use crate::report::{csr_matches, cycles_digest, vec_matches, Metric, Tally};
use crate::run::{
    complete_per_layer, repeat_for, timed, trace_lines, trace_summary, Outcome, Timing, FAMILIES,
    MIN_REPS, THREADS,
};
use crate::stats::median;
use crate::trace::{total_ns, Tracer};

/// Per-job wall-clock budget handed to the campaign.
const BUDGET_MS: u64 = 120_000;

/// Shards each corpus's timed campaign is split into, each shard into its
/// own store, so a cold pass is timed in slices of a few tenths of a
/// second. Sharding partitions the jobs and changes no result.
const SHARDS: [u32; 2] = [6, 2];

/// Warm passes per cold pass (a warm pass takes milliseconds, so several
/// samples keep its median steady).
const WARM_PASSES: usize = 10;

/// The SpMV and SpMA pairs, which share the main corpus.
const MAIN_KERNELS: [KernelKind; 5] = [
    KernelKind::SpmvCsr,
    KernelKind::SpmvSpc5,
    KernelKind::SpmvSell,
    KernelKind::SpmvCsb,
    KernelKind::Spma,
];

/// The two corpora for `seed`, each with the kernel pairs it runs.
///
/// SpMM's inner-product baseline costs about n³·d host work on an n-row
/// matrix of density d, against n²·d for SpMV, so on one shared corpus
/// SpMM takes nearly all the host time at any realistic size. Like every
/// SpMM experiment in the repository (`ExperimentScale::spmm`), the SpMM
/// pair therefore runs on a smaller sub-corpus. Each corpus has one matrix
/// per (size stratum × density stratum × structural family) cell; the
/// narrow strata keep the corpus's total work within a few percent from
/// seed to seed.
pub fn corpus_configs(seed: u64) -> [(StratifiedConfig, Vec<KernelKind>); 2] {
    let main = StratifiedConfig {
        count: 120,
        min_rows: 256,
        max_rows: 768,
        density_range: (0.005, 0.02),
        size_strata: 6,
        density_strata: 4,
        seed,
    };
    let spmm = StratifiedConfig {
        count: 60,
        min_rows: 80,
        max_rows: 136,
        density_range: (0.015, 0.03),
        size_strata: 6,
        density_strata: 2,
        seed: seed ^ 0x5BAA,
    };
    [
        (main, MAIN_KERNELS.to_vec()),
        (spmm, vec![KernelKind::Spmm]),
    ]
}

/// The generated corpora and the harness state built from them.
#[derive(Debug)]
pub struct Setup {
    parts: Vec<(StratifiedConfig, Vec<KernelKind>)>,
    specs: Vec<MatrixSpec>,
    matrices: Vec<Csr>,
    /// Jobs in canonical order: corpus, then matrix, then kernel in
    /// `KernelKind::ALL` order (the order `Corpus::jobs` schedules them).
    jobs: Vec<(usize, KernelKind)>,
}

/// Generates the corpora (specs plus every matrix materialized) and the
/// job list.
pub fn setup(seed: u64) -> Setup {
    let mut specs = Vec::new();
    let mut jobs = Vec::new();
    let parts = corpus_configs(seed).to_vec();
    for (config, kernels) in &parts {
        for spec in stratified_specs(config) {
            jobs.extend(kernels.iter().map(|&k| (specs.len(), k)));
            specs.push(spec);
        }
    }
    let matrices = specs.iter().map(|s| s.build().csr).collect();
    Setup {
        parts,
        specs,
        matrices,
        jobs,
    }
}

/// `(base, via, ssr)` cycles of every stored row, keyed by
/// `(matrix, kernel)`.
type Cycles = BTreeMap<(String, String), (u64, u64, u64)>;

fn cycles_of(rows: &[ResultRow]) -> Cycles {
    rows.iter()
        .map(|r| {
            (
                (r.matrix.clone(), r.kernel.clone()),
                (r.base_cycles, r.via_cycles, r.ssr_cycles.unwrap_or(0)),
            )
        })
        .collect()
}

/// The stores of a pass under `dir`, each with its corpus index and shard
/// spec: one per corpus, or with `sharded` one per shard of a corpus
/// ([`SHARDS`]).
fn stores(setup: &Setup, dir: &Path, sharded: bool) -> Vec<(usize, ShardSpec, PathBuf)> {
    let mut out = Vec::new();
    for (i, &shards) in SHARDS.iter().enumerate().take(setup.parts.len()) {
        if !sharded {
            out.push((i, ShardSpec::SOLO, store_dir(dir, i)));
            continue;
        }
        for k in 0..shards {
            let spec = ShardSpec::new(k, shards).expect("shard index below the count");
            out.push((i, spec, dir.join(format!("corpus{i}-shard{k}"))));
        }
    }
    out
}

/// One `run_campaign` per store of [`stores`], each into its own empty
/// store, each call wrapped in `slice` (the timed run times each one as a
/// slice of the pass); returns the stores, the per-worker job counts and
/// the host seconds the calls took.
fn campaign(
    setup: &Setup,
    dir: &Path,
    threads: usize,
    sharded: bool,
    slice: &mut dyn FnMut(&mut dyn FnMut()),
) -> Result<(Vec<PathBuf>, Vec<u64>, f64), String> {
    let (mut done, mut per_worker, mut secs) = (Vec::new(), vec![0; threads], 0.0);
    for (i, shard, store) in stores(setup, dir, sharded) {
        let (config, kernels) = &setup.parts[i];
        let mut cfg = CampaignConfig::new(&store);
        cfg.kernels = kernels.clone();
        cfg.threads = threads;
        cfg.backends = true;
        cfg.budget_ms = BUDGET_MS;
        cfg.shard = shard;
        let corpus = Corpus::Synthetic(config.clone());
        let mut call = None;
        slice(&mut || call = Some(timed(|| run_campaign(&cfg, &corpus, Mode::Fresh))));
        let (outcome, s) = call.expect("the campaign call ran");
        let outcome = outcome.map_err(|e| e.to_string())?;
        secs += s;
        for (w, n) in outcome.per_worker.iter().enumerate() {
            per_worker[w] += n;
        }
        done.push(store);
    }
    Ok((done, per_worker, secs))
}

/// The rows of every store of a pass.
fn load_rows(stores: &[PathBuf]) -> Result<Vec<ResultRow>, String> {
    let mut rows = Vec::new();
    for store in stores {
        rows.extend(load_results(store).map_err(|e| e.to_string())?);
    }
    Ok(rows)
}

/// The store of corpus `i` under a pass directory.
fn store_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("corpus{i}"))
}

/// Seeds each store of a fresh `warm` pass directory (one per corpus)
/// with its corpus's cycle memo: the `cycles.jsonl` of the corpus's
/// sharded cold stores, one after the other.
fn seed_memo(setup: &Setup, cold: &Path, warm: &Path) -> Result<(), String> {
    let shards = stores(setup, cold, true);
    for (i, _, to) in stores(setup, warm, false) {
        let mut memo = Vec::new();
        for (_, _, from) in shards.iter().filter(|s| s.0 == i) {
            memo.extend(std::fs::read(cycles_path(from)).map_err(|e| e.to_string())?);
            if memo.last().is_some_and(|&b| b != b'\n') {
                memo.push(b'\n');
            }
        }
        std::fs::create_dir_all(&to).map_err(|e| e.to_string())?;
        std::fs::write(cycles_path(&to), memo).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Counts every job of a pass: a job passes when its row exists and its
/// cycles equal the reference pass's.
fn check_pass(tally: &mut Tally, jobs: usize, got: &Cycles, want: &Cycles) {
    let matched = want.iter().filter(|(k, v)| got.get(*k) == Some(v)).count();
    tally.check_many(matched as u64, true);
    tally.check_many((jobs - matched.min(jobs)) as u64, false);
}

/// The end-to-end run.
pub fn untraced(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let (setup, mut timing) = Timing::setup(|| setup(seed));
    let jobs = &setup.jobs;
    let mut out = Outcome::default();
    let mut first: Option<(Vec<ResultRow>, Cycles)> = None;
    repeat_for(seconds, MIN_REPS, |rep| {
        let cold_dir = work.join(format!("cold{rep}"));
        let cold = campaign(&setup, &cold_dir, THREADS, true, &mut |f| timing.slice(f))
            .and_then(|(stores, _, _)| load_rows(&stores));
        let Ok(rows) = cold else {
            out.lines
                .push(format!("cold campaign failed: {}", cold.unwrap_err()));
            out.tally.check_many(jobs.len() as u64, false);
            timing.discard_pass();
            return;
        };
        timing.end_pass(jobs.len(), false);
        let cycles = cycles_of(&rows);
        let reference = &first
            .get_or_insert_with(|| (rows.clone(), cycles.clone()))
            .1;
        // The first pass must hold every job; later passes must repeat it.
        let complete = cycles.len() == jobs.len();
        check_pass(&mut out.tally, jobs.len(), &cycles, reference);
        if !complete {
            out.lines.push(format!(
                "cold pass {rep}: {} of {} jobs stored",
                cycles.len(),
                jobs.len()
            ));
        }
        for pass in 0..WARM_PASSES {
            let warm_dir = work.join(format!("warm{rep}-{pass}"));
            let warm = seed_memo(&setup, &cold_dir, &warm_dir)
                .and_then(|()| {
                    timing.slice(|| campaign(&setup, &warm_dir, THREADS, false, &mut |f| f()))
                })
                .and_then(|(stores, _, _)| load_rows(&stores));
            match warm {
                Ok(rows) => {
                    timing.end_pass(jobs.len(), true);
                    check_pass(&mut out.tally, jobs.len(), &cycles_of(&rows), reference);
                }
                Err(e) => {
                    timing.discard_pass();
                    out.lines.push(format!("warm campaign failed: {e}"));
                    out.tally.check_many(jobs.len() as u64, false);
                }
            }
            let _ = std::fs::remove_dir_all(&warm_dir);
        }
        let _ = std::fs::remove_dir_all(&cold_dir);
    });
    let Some((rows, cycles)) = first else {
        return out;
    };
    // Reference check: re-run every job's baseline leg and compare its
    // output with the scalar reference and its cycles with the store's.
    let ctx = SimContext::with_via(ViaConfig::default());
    for &(m, kernel) in jobs {
        let csr = setup.matrices[m].clone();
        let ops = operands(&mut Tracer::new(), &setup.specs[m], csr, kernel, &ctx);
        let run =
            run_leg(kernel, BackendKind::Baseline, &ops, &ctx).expect("every job has a baseline");
        let stored = cycles.get(&(setup.specs[m].name.clone(), kernel.name().to_string()));
        let ok = matches_reference(kernel, &ops, &run.output)
            && stored.is_some_and(|c| c.0 == run.stats.cycles);
        if !out.tally.check(ok) {
            out.lines.push(format!(
                "{} x {kernel}: baseline output or cycles wrong",
                setup.specs[m].name
            ));
        }
    }
    out.lines.extend(summary_lines(jobs, &setup, &cycles));
    out.lines.extend(accuracy_table(&rows));
    out.lines.extend(timing.lines());
    out.metrics = timing.metrics();
    out
}

/// The corpus size and the digest of the stored cycles.
fn summary_lines(jobs: &[(usize, KernelKind)], setup: &Setup, cycles: &Cycles) -> Vec<String> {
    let digest = cycles_digest(jobs.iter().flat_map(|&(m, k)| {
        let c = cycles
            .get(&(setup.specs[m].name.clone(), k.name().to_string()))
            .copied()
            .unwrap_or_default();
        [c.0, c.1, c.2]
    }));
    let nnz: usize = setup.matrices.iter().map(Csr::nnz).sum();
    vec![
        format!(
            "corpus: {} matrices, {} nnz, {} jobs",
            setup.specs.len(),
            nnz,
            jobs.len()
        ),
        format!("cycles_digest = {digest:016x}"),
    ]
}

/// Claims measured by this workload, by kernel pair.
const CLAIMS: [(KernelKind, &str); 6] = [
    (KernelKind::SpmvCsr, "fig10/csr"),
    (KernelKind::SpmvSpc5, "fig10/spc5"),
    (KernelKind::SpmvSell, "fig10/sell"),
    (KernelKind::SpmvCsb, "fig10/csb"),
    (KernelKind::Spma, "fig11/spma"),
    (KernelKind::Spmm, "spmm"),
];

/// The model-accuracy table: per claim, the paper's speedup, the simulated
/// geomean speedup over the corpus and |ln(simulated / paper)|, then their
/// mean, `paper_log_error`.
pub fn accuracy_table(rows: &[ResultRow]) -> Vec<String> {
    let mut lines = vec![
        "model accuracy (reference: the paper's gem5 results; the model is not validated \
         against hardware):"
            .to_string(),
        format!(
            "  {:<12} {:>8} {:>10} {:>10}",
            "claim", "paper", "simulated", "log_error"
        ),
    ];
    let mut errors = Vec::new();
    for (kernel, id) in CLAIMS {
        let speedups: Vec<f64> = rows
            .iter()
            .filter(|r| r.kernel == kernel.name())
            .map(ResultRow::speedup)
            .collect();
        if speedups.is_empty() {
            continue;
        }
        let simulated = via_formats::stats::geomean(&speedups);
        let paper = claim(id).paper;
        let err = (simulated / paper).ln().abs();
        errors.push(err);
        lines.push(format!(
            "  {id:<12} {paper:>7.2}x {simulated:>9.3}x {err:>10.4}"
        ));
    }
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    lines.push(format!("paper_log_error = {mean:.6}"));
    lines
}

/// A kernel output of either shape.
#[derive(Debug, Clone)]
enum Out {
    Vector(Vec<f64>),
    Matrix(Csr),
}

/// The operands of one job, built the way the campaign's job executor
/// builds them, with the non-zeros generated and converted on the way.
struct Operands {
    csr: Csr,
    x: Vec<f64>,
    csb: Option<Csb>,
    spc5: Option<Spc5>,
    sell: Option<SellCSigma>,
    b: Option<Csr>,
    b_csc: Option<Csc>,
    generated: u64,
    converted: u64,
}

/// Builds the operands of a job on matrix `csr` inside `formats.*` spans.
fn operands(
    t: &mut Tracer,
    spec: &MatrixSpec,
    csr: Csr,
    kernel: KernelKind,
    ctx: &SimContext,
) -> Operands {
    let seed = spec.seed;
    let mut ops = Operands {
        x: Vec::new(),
        csb: None,
        spc5: None,
        sell: None,
        b: None,
        b_csc: None,
        generated: 0,
        converted: 0,
        csr,
    };
    let nnz = ops.csr.nnz() as u64;
    match kernel {
        KernelKind::Spma => {
            let b = t.span("formats.gen", |_| {
                gen::perturb_structure(&ops.csr, 0.6, 0.5, seed ^ 1)
            });
            ops.generated += b.nnz() as u64;
            ops.b = Some(b);
        }
        KernelKind::Spmm => {
            let (cols, density) = (ops.csr.cols(), ops.csr.density());
            let b = t.span("formats.gen", |_| {
                gen::uniform(cols, cols, density, seed ^ 2)
            });
            ops.b_csc = Some(t.span("formats.convert", |_| b.to_csc()));
            ops.generated += b.nnz() as u64;
            ops.converted += b.nnz() as u64;
            ops.b = Some(b);
        }
        _ => {
            let cols = ops.csr.cols();
            ops.x = t.span("formats.gen", |_| gen::dense_vector(cols, seed));
            let a = &ops.csr;
            ops.csb = Some(t.span("formats.convert", |_| {
                Csb::from_csr(a, ctx.via.csb_block_size()).expect("power-of-two block size")
            }));
            ops.converted += nnz;
            if kernel == KernelKind::SpmvSpc5 {
                ops.spc5 = Some(t.span("formats.convert", |_| {
                    Spc5::from_csr(a, ctx.vl()).expect("vector-length block height")
                }));
                ops.converted += nnz;
            }
            if kernel == KernelKind::SpmvSell {
                let vl = ctx.vl();
                let sigma = (vl * 8).min(a.rows().max(vl));
                ops.sell = Some(t.span("formats.convert", |_| {
                    SellCSigma::from_csr(a, vl, sigma)
                        .or_else(|_| SellCSigma::from_csr(a, vl, vl))
                        .expect("Sell-C-sigma accepts the matrix")
                }));
                ops.converted += nnz;
            }
        }
    }
    ops
}

fn vector(run: KernelRun<Vec<f64>>) -> KernelRun<Out> {
    map_output(run, Out::Vector)
}

fn matrix(run: KernelRun<Csr>) -> KernelRun<Out> {
    map_output(run, Out::Matrix)
}

/// Runs one leg of a job's kernel pair, as the campaign does; `None` for
/// the SSR leg of SpMA, which has no SSR kernel.
fn run_leg(
    kernel: KernelKind,
    leg: BackendKind,
    ops: &Operands,
    ctx: &SimContext,
) -> Option<KernelRun<Out>> {
    let (a, x) = (&ops.csr, &ops.x);
    Some(match (kernel, leg) {
        (KernelKind::Spma, BackendKind::Ssr) => return None,
        (KernelKind::Spma, BackendKind::Baseline) => {
            matrix(spma::merge_csr(a, ops.b.as_ref()?, ctx))
        }
        (KernelKind::Spma, BackendKind::Via) => matrix(spma::via_cam(a, ops.b.as_ref()?, ctx)),
        (KernelKind::Spmm, BackendKind::Baseline) => {
            matrix(spmm::inner_product(a, ops.b_csc.as_ref()?, ctx))
        }
        (KernelKind::Spmm, BackendKind::Via) => matrix(spmm::via_cam(a, ops.b_csc.as_ref()?, ctx)),
        (KernelKind::Spmm, BackendKind::Ssr) => {
            matrix(ssr::spmm_gustavson(a, ops.b.as_ref()?, ctx))
        }
        (_, BackendKind::Ssr) => vector(ssr::spmv_csr(a, x, ctx)),
        (KernelKind::SpmvCsr, BackendKind::Baseline) => vector(spmv::csr_vec(a, x, ctx)),
        (KernelKind::SpmvCsr, BackendKind::Via) => vector(spmv::via_csr(a, x, ctx)),
        (KernelKind::SpmvSpc5, BackendKind::Baseline) => {
            vector(spmv::spc5(ops.spc5.as_ref()?, x, ctx))
        }
        (KernelKind::SpmvSpc5, BackendKind::Via) => {
            vector(spmv::via_spc5(ops.spc5.as_ref()?, x, ctx))
        }
        (KernelKind::SpmvSell, BackendKind::Baseline) => {
            vector(spmv::sell(ops.sell.as_ref()?, x, ctx))
        }
        (KernelKind::SpmvSell, BackendKind::Via) => {
            vector(spmv::via_sell(ops.sell.as_ref()?, x, ctx))
        }
        (_, BackendKind::Baseline) => vector(spmv::csb_software(ops.csb.as_ref()?, x, ctx)),
        (_, BackendKind::Via) => vector(spmv::via_csb(ops.csb.as_ref()?, x, ctx)),
    })
}

/// Whether `out` equals the scalar reference result of the job.
fn matches_reference(kernel: KernelKind, ops: &Operands, out: &Out) -> bool {
    match (kernel, out) {
        (KernelKind::Spma, Out::Matrix(c)) => ops
            .b
            .as_ref()
            .and_then(|b| reference::spma(&ops.csr, b).ok())
            .is_some_and(|want| csr_matches(c, &want)),
        (KernelKind::Spmm, Out::Matrix(c)) => ops
            .b_csc
            .as_ref()
            .and_then(|b| reference::spmm(&ops.csr, b).ok())
            .is_some_and(|want| csr_matches(c, &want)),
        (_, Out::Vector(y)) => vec_matches(y, &reference::spmv(&ops.csr, &ops.x)),
        _ => false,
    }
}

/// The family a kernel pair belongs to.
fn family(kernel: KernelKind) -> &'static str {
    match kernel {
        KernelKind::Spma => "spma",
        KernelKind::Spmm => "spmm",
        _ => "spmv",
    }
}

/// The traced run: one real campaign at [`THREADS`] workers (store and
/// scheduler metrics), one at a single worker (the untraced wall time),
/// then every job decomposed into layer calls on one thread, repeated
/// until `seconds` have passed.
pub fn traced(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let setup = setup(seed);
    let jobs = &setup.jobs;
    let mut out = Outcome::default();
    let before = via_sim::telemetry::snapshot();
    let real = campaign(&setup, &work.join("real"), THREADS, false, &mut |f| f());
    let counted = via_sim::telemetry::snapshot().since(&before);
    let untraced = campaign(&setup, &work.join("single"), 1, false, &mut |f| f());
    let real = real.and_then(|(stores, per_worker, s)| Ok((load_rows(&stores)?, per_worker, s)));
    let (Ok((rows, per_worker, real_s)), Ok((_, _, untraced_s))) = (real, untraced) else {
        out.lines.push("campaign failed".into());
        out.tally.check_many(jobs.len() as u64, false);
        return out;
    };
    let stored = cycles_of(&rows);
    let store_bytes: u64 = ["results.jsonl", "cycles.jsonl"]
        .iter()
        .flat_map(|f| (0..setup.parts.len()).map(move |i| store_dir(&work.join("real"), i).join(f)))
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();

    let ctx = SimContext::with_via(ViaConfig::default());
    let mut t = Tracer::new();
    let mut prof = LegProfile::default();
    let mut family_inst: BTreeMap<&str, u64> = BTreeMap::new();
    let mut family_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut gen_nnz, mut convert_nnz) = (0.0, 0.0);
    let mut traced_walls = Vec::new();
    repeat_for(seconds, 1, |rep| {
        let (_, wall) = timed(|| {
            t.span("harness.run", |t| {
                for (p, &(m, kernel)) in jobs.iter().enumerate() {
                    t.set_point(p as u64);
                    let first = t.spans().len();
                    let (ok, inst, nnz) = trace_job(t, &mut prof, &setup, m, kernel, &ctx, &stored);
                    gen_nnz += nnz[0] as f64;
                    convert_nnz += nnz[1] as f64;
                    *family_ns.entry(family(kernel)).or_default() += t.spans()[first].duration_ns();
                    if rep == 0 {
                        *family_inst.entry(family(kernel)).or_default() += inst;
                        if !out.tally.check(ok) {
                            out.lines.push(format!(
                                "{} x {kernel}: traced check failed",
                                setup.specs[m].name
                            ));
                        }
                    }
                }
            })
        });
        traced_walls.push(wall);
    });
    let spans = t.spans();
    let reps = traced_walls.len() as f64;
    let per_job = |name: &str| total_ns(spans, name) as f64 / (jobs.len() as f64 * reps);
    let total_family_ns: u64 = family_ns.values().sum();
    let mut metrics = vec![
        Metric::new(
            "formats.gen_ns_per_nnz",
            total_ns(spans, "formats.gen") as f64 / gen_nnz,
            "ns/nnz",
        ),
        Metric::new(
            "formats.convert_ns_per_nnz",
            total_ns(spans, "formats.convert") as f64 / convert_nnz,
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
        Metric::new(
            "store.bytes_per_row",
            store_bytes as f64 / rows.len().max(1) as f64,
            "B/row",
        ),
        Metric::new(
            "store.serialize_ns_per_row",
            per_job("campaign.serialize"),
            "ns/row",
        ),
        Metric::new("exec.job_spawn_us", per_job("campaign.spawn") / 1e3, "us"),
        Metric::new(
            "exec.jobs_per_worker_max_over_mean",
            max_over_mean(&per_worker),
            "ratio",
        ),
    ];
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
    out.lines.extend(summary_lines(jobs, &setup, &stored));
    out.metrics = complete_per_layer(metrics);
    out.spans = t.spans().to_vec();
    out
}

/// One job decomposed into layer calls under a `harness.point` span:
/// operands, every leg probed and reference-checked, the store row
/// serialized and parsed back, and one empty job through the executor.
/// Returns whether every check passed (cycles included: they must equal
/// the real campaign's stored row), the instructions simulated, and the
/// non-zeros generated and converted.
fn trace_job(
    t: &mut Tracer,
    prof: &mut LegProfile,
    setup: &Setup,
    m: usize,
    kernel: KernelKind,
    ctx: &SimContext,
    stored: &Cycles,
) -> (bool, u64, [u64; 2]) {
    let spec = &setup.specs[m];
    t.span("harness.point", |t| {
        let built = t.span("formats.gen", |_| spec.build().csr);
        let ops = operands(t, spec, built, kernel, ctx);
        let mut cycles = [0u64; 3];
        let (mut inst, mut ok) = (0, true);
        for (i, leg) in BackendKind::ALL.into_iter().enumerate() {
            if kernel == KernelKind::Spma && leg == BackendKind::Ssr {
                continue;
            }
            let probed = probe_leg(t, prof, ctx, leg, |c| {
                run_leg(kernel, leg, &ops, c).expect("the leg exists")
            });
            let matches = t.span("harness.reference", |_| {
                matches_reference(kernel, &ops, &probed.output)
            });
            ok &= probed.consistent && matches;
            cycles[i] = probed.cycles;
            inst += probed.instructions;
        }
        let row = ResultRow {
            matrix: spec.name.clone(),
            fingerprint: spec.fingerprint(),
            kernel: kernel.name().to_string(),
            config: ctx.via.name(),
            rows: ops.csr.rows(),
            cols: ops.csr.cols(),
            nnz: ops.csr.nnz(),
            key: 0.0,
            base_cycles: cycles[0],
            via_cycles: cycles[1],
            ssr_cycles: (kernel != KernelKind::Spma).then_some(cycles[2]),
        };
        t.span("campaign.serialize", |_| {
            let back = ResultRow::from_jsonl(&row.to_jsonl());
            std::hint::black_box(back);
        });
        t.span("campaign.spawn", |_| {
            let _ = run_with_budget(std::time::Duration::from_millis(BUDGET_MS), "probe", || ());
        });
        let want = stored.get(&(spec.name.clone(), kernel.name().to_string()));
        ok &= want == Some(&(cycles[0], cycles[1], cycles[2]));
        (
            ok,
            inst,
            [ops.csr.nnz() as u64 + ops.generated, ops.converted],
        )
    })
}

/// Largest over mean of per-worker job counts (1.0 = perfectly even).
pub fn max_over_mean(counts: &[u64]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<u64>() as f64 / counts.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}
