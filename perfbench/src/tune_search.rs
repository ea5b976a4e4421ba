//! `tune_search`: the per-matrix auto-tuner, audit on.
//!
//! One point is one candidate variant. The cold pass runs `tune` through a
//! fresh `SweepMemo` on [`THREADS`] workers (`parallel_map`'s closed loop
//! over matrices; each worker walks one matrix's variant spaces in order);
//! it is the only traffic that runs the analyzer (on every non-default
//! candidate), emit-only compiles and pure replays. The warm pass runs the
//! identical `tune` again through the same memo.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use via_bench::{point_key, tune, ExperimentScale, Suite, SweepMemo, TuneConfig, TuneOutcome};
use via_core::{BackendKind, ViaConfig};
use via_gen::{GenInputs, GenOutput, Kernel, KernelVariant};
use via_kernels::SimContext;
use via_sim::analyze::{alias, bound, liveness, reuse};
use via_sim::telemetry::{snapshot, TelemetrySnapshot};
use via_sim::{AnalysisCache, AnalyzeConfig};

use crate::probe::{leg_metrics, probe_leg, LegProfile};
use crate::report::{csr_matches, cycles_digest, vec_matches, Metric};
use crate::run::{
    complete_per_layer, repeat_for, timed, trace_lines, trace_summary, Outcome, Timing, FAMILIES,
    MIN_REPS, THREADS,
};
use crate::stats::median;
use crate::trace::{total_ns, Tracer};

/// The tuner configuration for `seed`: 25 matrices (five per structural
/// family) in a narrow size and density band, so the work per pass stays
/// within a few percent from seed to seed; every kernel; audit on.
pub fn config(seed: u64, threads: usize) -> TuneConfig {
    TuneConfig {
        via: ViaConfig::default(),
        scale: ExperimentScale {
            matrices: 25,
            min_rows: 104,
            max_rows: 120,
            density_range: (0.023, 0.027),
            seed,
            threads,
        },
        kernels: Kernel::ALL.to_vec(),
        audit: true,
    }
}

/// The corpus and the point count of one pass.
#[derive(Debug)]
pub struct Setup {
    cfg: TuneConfig,
    suite: Suite,
    points: u64,
}

/// Generates the corpus (`tune` regenerates it itself, as every real
/// invocation does; the harness keeps its own copy for the traced run).
pub fn setup(seed: u64) -> Setup {
    let cfg = config(seed, THREADS);
    let suite = Suite::generate(&cfg.scale);
    let per_matrix: usize = cfg
        .kernels
        .iter()
        .map(|&k| KernelVariant::space(k).len())
        .sum();
    Setup {
        points: (per_matrix * suite.len()) as u64,
        cfg,
        suite,
    }
}

/// One `tune` call; `None` if it panicked (a variant's output diverged
/// from the reference model, which `tune` asserts for every candidate).
fn tune_pass(cfg: &TuneConfig, memo: &SweepMemo) -> (Option<TuneOutcome>, f64) {
    timed(|| catch_unwind(AssertUnwindSafe(|| tune(cfg, memo))).ok())
}

/// The cycle fields of every winner row, in corpus order.
fn row_cycles(outcome: &TuneOutcome) -> Vec<u64> {
    outcome
        .rows
        .iter()
        .flat_map(|r| [r.default_cycles, r.best_cycles, r.variant_hash, r.pruned])
        .collect()
}

/// Whether a pass is good: it finished, every bound held, no prune was
/// unsound, and its winners equal the reference pass's.
fn pass_ok(outcome: &Option<TuneOutcome>, reference: &[u64]) -> bool {
    outcome
        .as_ref()
        .is_some_and(|o| o.is_sound() && row_cycles(o) == reference)
}

/// The end-to-end run.
pub fn untraced(seed: u64, seconds: f64, _work: &Path) -> Outcome {
    let (setup, mut timing) = Timing::setup(|| setup(seed));
    let mut out = Outcome::default();
    let mut reference: Option<Vec<u64>> = None;
    let mut last = None;
    repeat_for(seconds, MIN_REPS, |_| {
        let memo = SweepMemo::new();
        let points = setup.points as usize;
        let mut timed_pass = |warm| {
            let outcome = timing.slice(|| tune_pass(&setup.cfg, &memo).0);
            match outcome {
                Some(_) => timing.end_pass(points, warm),
                None => timing.discard_pass(),
            }
            outcome
        };
        let cold = timed_pass(false);
        let warm = timed_pass(true);
        let want = reference
            .get_or_insert_with(|| cold.as_ref().map(row_cycles).unwrap_or_default())
            .clone();
        out.tally.check_many(setup.points, pass_ok(&cold, &want));
        out.tally.check_many(setup.points, pass_ok(&warm, &want));
        last = cold.or(last.take());
    });
    if let Some(outcome) = &last {
        out.lines.extend(summary_lines(&setup, outcome));
    }
    out.lines.extend(timing.lines());
    out.metrics = timing.metrics();
    out
}

fn summary_lines(setup: &Setup, outcome: &TuneOutcome) -> Vec<String> {
    vec![
        format!(
            "corpus: {} matrices, {} candidate variants per pass; {} pruned, {} non-default winners",
            setup.suite.len(),
            setup.points,
            outcome.pruned,
            outcome.non_default_winners()
        ),
        format!("cycles_digest = {:016x}", cycles_digest(row_cycles(outcome))),
    ]
}

/// Whether a generated kernel output equals its reference.
fn output_matches(got: &GenOutput, want: &GenOutput) -> bool {
    match (got, want) {
        (GenOutput::Vector(g), GenOutput::Vector(w)) => vec_matches(g, w),
        (GenOutput::Matrix(g), GenOutput::Matrix(w)) => csr_matches(g, w),
        _ => false,
    }
}

/// The real cold and warm passes at [`THREADS`] workers, with the
/// process-wide counters they moved.
struct RealRun {
    cold: TuneOutcome,
    memo: SweepMemo,
    cold_counts: TelemetrySnapshot,
    warm_counts: TelemetrySnapshot,
    secs: f64,
}

fn real_run(cfg: &TuneConfig) -> Option<RealRun> {
    let memo = SweepMemo::new();
    let before = snapshot();
    let (cold, cold_s) = tune_pass(cfg, &memo);
    let middle = snapshot();
    let (warm, warm_s) = tune_pass(cfg, &memo);
    let after = snapshot();
    let (cold, warm) = (cold?, warm?);
    (row_cycles(&cold) == row_cycles(&warm)).then_some(RealRun {
        cold,
        memo,
        cold_counts: middle.since(&before),
        warm_counts: after.since(&middle),
        secs: cold_s + warm_s,
    })
}

/// The traced run: the real cold and warm passes at [`THREADS`] workers
/// (memo, pruning and counter metrics), a cold pass at one worker (the
/// untraced wall time), then every candidate decomposed into layer calls
/// on one thread, repeated until `seconds` have passed.
pub fn traced(seed: u64, seconds: f64, _work: &Path) -> Outcome {
    let setup = setup(seed);
    let mut out = Outcome::default();
    let real = real_run(&setup.cfg);
    // The decomposition resolves each candidate once, like the cold pass.
    let (_, untraced_s) = tune_pass(&config(seed, 1), &SweepMemo::new());
    let Some(real) = real else {
        out.lines.push("tune failed or was not repeatable".into());
        out.tally.check_many(setup.points, false);
        return out;
    };

    let ctx = SimContext::with_via(setup.cfg.via);
    let core = ctx.core.clone().with_custom_unit();
    let cfg_hash = via_sim::config_hash(&core, &ctx.mem);
    let acfg =
        AnalyzeConfig::from_machine(&core, &ctx.mem).with_cam_entries(ctx.via.cam_entries() as u64);
    let config_name = setup.cfg.via.name();
    let mut t = Tracer::new();
    let mut prof = LegProfile::default();
    let mut family_inst: BTreeMap<&str, u64> = BTreeMap::new();
    let mut family_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut analyzed, mut lookups) = (0u64, 0u64);
    let mut traced_walls = Vec::new();
    repeat_for(seconds, 1, |rep| {
        let analysis = AnalysisCache::default();
        let (_, wall) = timed(|| {
            t.span("harness.run", |t| {
                t.set_point(0);
                let suite = t.span("formats.gen", |_| Suite::generate(&setup.cfg.scale));
                let mut point = 0u64;
                for (mi, m) in suite.matrices.iter().enumerate() {
                    let inputs = t.span("formats.convert", |_| {
                        GenInputs::from_matrix(&m.name, &m.csr, m.seed)
                    });
                    for (ki, &kernel) in setup.cfg.kernels.iter().enumerate() {
                        let expected = t.span("harness.reference", |_| inputs.expected(kernel));
                        let row = &real.cold.rows[mi * setup.cfg.kernels.len() + ki];
                        let (mut best, mut ok) = (u64::MAX, true);
                        for v in KernelVariant::space(kernel) {
                            t.set_point(point);
                            point += 1;
                            let first = t.spans().len();
                            let (cycles, inst, point_ok) = t.span("harness.point", |t| {
                                let leg = probe_leg(t, &mut prof, &ctx, BackendKind::Via, |c| {
                                    v.emit(&inputs, c)
                                });
                                let mut ok = leg.consistent
                                    && t.span("harness.reference", |_| {
                                        output_matches(&leg.output, &expected)
                                    });
                                if !v.is_default() {
                                    analyze_passes(t, &leg.stream, &acfg, &analysis);
                                    if rep == 0 {
                                        analyzed += leg.stream.len() as u64;
                                    }
                                }
                                let key = point_key(&v.name(), &config_name, &m.name, m.seed);
                                let memoized = real.memo.streams().get(key).and_then(|s| {
                                    real.memo.memoized_cycles(s.stream_hash(), cfg_hash)
                                });
                                if memoized.is_some() {
                                    let hit = t.span("memo.lookup", |_| {
                                        real.memo.cycles_for(
                                            key,
                                            cfg_hash,
                                            || unreachable!("the warm memo holds this point"),
                                            || unreachable!("the warm memo holds this point"),
                                        )
                                    });
                                    ok &= hit == leg.cycles;
                                    if rep == 0 {
                                        lookups += 1;
                                    }
                                }
                                if v.is_default() {
                                    ok &= leg.cycles == row.default_cycles;
                                }
                                (leg.cycles, leg.instructions, ok)
                            });
                            *family_ns.entry(kernel.name()).or_default() +=
                                t.spans()[first].duration_ns();
                            if rep == 0 {
                                *family_inst.entry(kernel.name()).or_default() += inst;
                            }
                            best = best.min(cycles);
                            ok &= point_ok;
                        }
                        // Pruning is sound, so the winner is the fastest of
                        // all candidates once every one is simulated.
                        ok &= best == row.best_cycles;
                        if rep == 0 {
                            out.tally.check_many(row.candidates, ok);
                            if !ok {
                                out.lines.push(format!(
                                    "{} x {}: traced check failed",
                                    m.name,
                                    kernel.name()
                                ));
                            }
                        }
                    }
                }
            })
        });
        traced_walls.push(wall);
    });

    let spans = t.spans();
    let reps = traced_walls.len() as f64;
    let nnz: f64 = setup
        .suite
        .matrices
        .iter()
        .map(|m| m.csr.nnz() as f64)
        .sum();
    let per_analyzed =
        |name: &str| total_ns(spans, name) as f64 / (analyzed as f64 * reps).max(1.0);
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let (cold, warm) = (&real.cold_counts, &real.warm_counts);
    let total_family_ns: u64 = family_ns.values().sum();
    let mut metrics = vec![
        Metric::new(
            "formats.gen_ns_per_nnz",
            total_ns(spans, "formats.gen") as f64 / (nnz * reps),
            "ns/nnz",
        ),
        Metric::new(
            "formats.convert_ns_per_nnz",
            total_ns(spans, "formats.convert") as f64 / (nnz * reps),
            "ns/nnz",
        ),
        Metric::new(
            "sim.raw_mips",
            (cold.instructions + warm.instructions) as f64 / real.secs / 1e6,
            "MIPS",
        ),
        Metric::new(
            "sim.effective_mips",
            (cold.effective_instructions() + warm.effective_instructions()) as f64
                / real.secs
                / 1e6,
            "MIPS",
        ),
        Metric::new(
            "analyze.liveness_ns_per_inst",
            per_analyzed("analyze.liveness"),
            "ns/inst",
        ),
        Metric::new(
            "analyze.alias_ns_per_inst",
            per_analyzed("analyze.alias"),
            "ns/inst",
        ),
        Metric::new(
            "analyze.reuse_ns_per_inst",
            per_analyzed("analyze.reuse"),
            "ns/inst",
        ),
        Metric::new(
            "analyze.bound_ns_per_inst",
            per_analyzed("analyze.bound"),
            "ns/inst",
        ),
        Metric::new(
            "analyze.total_ns_per_inst",
            per_analyzed("analyze.total"),
            "ns/inst",
        ),
        Metric::new(
            "analyze.cache_hit_ratio",
            ratio(
                cold.analysis_cache_hits + warm.analysis_cache_hits,
                cold.analysis_cache_hits
                    + warm.analysis_cache_hits
                    + cold.analysis_cache_misses
                    + warm.analysis_cache_misses,
            ),
            "ratio",
        ),
        Metric::new("tune.prune_ratio", real.cold.prune_rate(), "ratio"),
        Metric::new(
            "tune.warm_recompiles_per_point",
            ratio(warm.compiled_streams, setup.points),
            "count/point",
        ),
        Metric::new(
            "memo.stream_hit_ratio",
            ratio(
                warm.stream_cache_hits,
                warm.stream_cache_hits + warm.stream_cache_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "memo.cycle_hit_ratio",
            ratio(
                warm.cycle_cache_hits,
                warm.cycle_cache_hits + warm.cycle_cache_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "memo.lookup_ns",
            total_ns(spans, "memo.lookup") as f64 / (lookups as f64 * reps).max(1.0),
            "ns",
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
    out.lines.extend(summary_lines(&setup, &real.cold));
    out.metrics = complete_per_layer(metrics);
    out.spans = t.spans().to_vec();
    out
}

/// Each static-analysis pass on its own, then the full `analyze` through
/// the tuner's kind of analysis cache.
fn analyze_passes(
    t: &mut Tracer,
    stream: &via_sim::CompiledStream,
    acfg: &AnalyzeConfig,
    cache: &AnalysisCache,
) {
    use std::hint::black_box;
    let insts = stream.insts();
    t.span("analyze.liveness", |_| {
        black_box((
            liveness::dead_register_writes(insts),
            liveness::dead_stores(insts),
        ))
    });
    t.span("analyze.alias", |_| {
        black_box(alias::must_alias_conflicts(insts, acfg.alias_window))
    });
    t.span("analyze.reuse", |_| {
        black_box(reuse::region_reuse(
            insts,
            stream.events(),
            acfg.mem.l1.line_bytes as u64,
        ))
    });
    t.span("analyze.bound", |_| {
        black_box(bound::static_bound(insts, acfg))
    });
    t.span("analyze.total", |_| {
        black_box(cache.get_or_analyze(stream, acfg))
    });
}
