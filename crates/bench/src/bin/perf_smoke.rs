//! Simulator-throughput smoke benchmark.
//!
//! Two measurements, one JSON artifact (`BENCH_sim_throughput.json`):
//!
//! 1. **Legacy hot-path workloads** — re-runs two fixed workloads that were
//!    timed with the same harness *before* the engine hot-path overhaul
//!    (allocation-free instruction streams, flat predictor, cache fast
//!    path, lock-free sweep) and reports wall-clock against the recorded
//!    pre-overhaul baselines.
//! Plus a third measurement with its own artifact (`BENCH_autotune.json`):
//! the quick-tune pass — the per-matrix auto-tuner over the quick corpus,
//! reporting the default-vs-tuned cycle geomean per kernel, the static
//! bound's prune rate, and the tune wall time. A second tune through the
//! same memo must reproduce the winners bit-identically, and the overall
//! geomean must clear the 1.10x acceptance floor.
//!
//! 2. **Compiled sweep** — runs the Figure-9 DSE sweep `SWEEP_REPS` times
//!    through one [`SweepMemo`]: repetition 1 compiles every point
//!    (records + verifies the streams), repetition 2 replays the cached
//!    streams after the cycle memo is cleared, and every further
//!    repetition answers from the `(stream, config)` cycle memo without
//!    simulating. The *effective* sweep throughput counts both simulated
//!    and memo-skipped instructions over the total wall time — the
//!    decode-once / sweep-many win ROADMAP item 1 targets (≥10× over the
//!    11.7 MIPS interpreted single-thread baseline). Every repetition is
//!    asserted bit-identical to the first.
//!
//! ```sh
//! cargo run --release -p via-bench --bin perf_smoke [-- --out path.json]
//! ```

use std::time::Instant;
use via_bench::{
    default_threads, fig10_spmv, fig12a_histogram, fig9_dse_with_memo, tune, ExperimentScale,
    SweepMemo, TuneConfig,
};

/// Pre-overhaul wall-clock per iteration (ms), measured with the
/// workspace's former per-experiment bench mains on the same workloads at
/// the commit that introduced the golden cycle-count snapshots (the last
/// point where the timing model and today's are bit-identical by test).
const BASELINE_SPMV_TINY_MS: f64 = 7.472;
const BASELINE_HISTOGRAM_MS: f64 = 16.257;

/// Interpreted single-thread throughput recorded before the compile/replay
/// engine landed (the `mips` field of the previous
/// `BENCH_sim_throughput.json`; ROADMAP item 1's reference point).
const BASELINE_SWEEP_MIPS: f64 = 11.73;

/// Figure-9 sweep repetitions: one compile pass, one pure-replay pass, and
/// `SWEEP_REPS - 2` memoized passes — the shape of a DSE campaign that
/// keeps revisiting the same (config × matrix) grid while iterating.
const SWEEP_REPS: usize = 40;

/// The exact workloads the baselines were recorded on: this SpMV suite
/// through `fig10_spmv`, and `fig12a_histogram(1500, 5)`.
fn spmv_tiny_scale() -> ExperimentScale {
    ExperimentScale {
        matrices: 3,
        min_rows: 96,
        max_rows: 192,
        density_range: (0.001, 0.026),
        seed: 1,
        ..ExperimentScale::quick()
    }
}

/// The Figure-9 DSE sweep the compiled-path throughput is measured on
/// (the `fig9_normalizes_to_4_2p` test scale, on all cores).
fn fig9_sweep_scale() -> ExperimentScale {
    ExperimentScale {
        matrices: 4,
        min_rows: 96,
        max_rows: 192,
        density_range: (0.001, 0.026),
        seed: 5,
        threads: default_threads(),
    }
}

/// Best-of-`reps` wall-clock in milliseconds, after one warmup call.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_sim_throughput.json".to_string());

    // --- Legacy hot-path workloads -------------------------------------
    let probe = via_sim::ThroughputProbe::start();
    let scale = spmv_tiny_scale();
    let spmv_ms = best_ms(9, || fig10_spmv(&scale));
    let hist_ms = best_ms(9, || fig12a_histogram(1500, 5));
    let instructions = probe.instructions();
    let wall_s = probe.elapsed().as_secs_f64();
    let mips = probe.mips();

    let workloads = [
        ("fig10_spmv_tiny_suite", spmv_ms, BASELINE_SPMV_TINY_MS),
        ("fig12a_histogram_small", hist_ms, BASELINE_HISTOGRAM_MS),
    ];
    let mut entries = String::new();
    for (i, (name, ms, base)) in workloads.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"name\": \"{name}\", \"wall_ms\": {ms:.3}, \
             \"pre_overhaul_ms\": {base:.3}, \"speedup\": {:.2}}}",
            base / ms
        ));
        eprintln!(
            "  {name:<24} {ms:>8.3} ms/iter (pre-overhaul {base:.3} ms, \
             {:.2}x faster)",
            base / ms
        );
    }

    // --- Compiled fig9 sweep -------------------------------------------
    let sweep_scale = fig9_sweep_scale();
    let memo = SweepMemo::new();
    let t_start = via_sim::telemetry::snapshot();

    // Repetition 1: compile (record + verify every stream).
    let t = Instant::now();
    let reference = fig9_dse_with_memo(&sweep_scale, &memo);
    let compile_s = t.elapsed().as_secs_f64();
    let after_compile = via_sim::telemetry::snapshot();
    let compiled_instructions = after_compile.since(&t_start).instructions;

    // Repetition 2: pure replay (cycle memo cleared, streams kept).
    memo.clear_cycle_memo();
    let t = Instant::now();
    let replayed = fig9_dse_with_memo(&sweep_scale, &memo);
    let replay_s = t.elapsed().as_secs_f64();
    let after_replay = via_sim::telemetry::snapshot();
    let replayed_instructions = after_replay.since(&after_compile).instructions;
    assert_eq!(replayed, reference, "replay must be bit-identical");

    // Repetitions 3..=SWEEP_REPS: memoized (no simulation at all).
    let t = Instant::now();
    for _ in 2..SWEEP_REPS {
        let rep = fig9_dse_with_memo(&sweep_scale, &memo);
        assert_eq!(rep, reference, "memo hit must be bit-identical");
    }
    let memo_s = t.elapsed().as_secs_f64();
    let sweep_delta = via_sim::telemetry::snapshot().since(&t_start);

    let sweep_wall = compile_s + replay_s + memo_s;
    let compile_mips = compiled_instructions as f64 / compile_s.max(1e-9) / 1e6;
    let replay_mips = replayed_instructions as f64 / replay_s.max(1e-9) / 1e6;
    let sweep_mips = sweep_delta.effective_instructions() as f64 / sweep_wall.max(1e-9) / 1e6;
    let speedup = sweep_mips / BASELINE_SWEEP_MIPS;

    eprintln!(
        "  fig9 sweep x{SWEEP_REPS}: compile {:.1} ms ({compile_mips:.1} MIPS), \
         replay {:.1} ms ({replay_mips:.1} MIPS), {} memoized reps {:.1} ms",
        compile_s * 1e3,
        replay_s * 1e3,
        SWEEP_REPS - 2,
        memo_s * 1e3,
    );
    eprintln!(
        "  effective sweep throughput {sweep_mips:.1} MIPS = {speedup:.1}x \
         the {BASELINE_SWEEP_MIPS} MIPS interpreted baseline"
    );
    eprintln!("  {}", sweep_delta.render());

    let sweep_json = format!(
        "  \"sweep\": {{\n    \"name\": \"fig9_dse_compiled\",\n    \
         \"reps\": {SWEEP_REPS},\n    \"threads\": {},\n    \
         \"compile_seconds\": {compile_s:.4},\n    \
         \"replay_seconds\": {replay_s:.4},\n    \
         \"memo_seconds\": {memo_s:.4},\n    \
         \"compiled_instructions\": {compiled_instructions},\n    \
         \"replayed_instructions\": {replayed_instructions},\n    \
         \"memo_skipped_instructions\": {},\n    \
         \"stream_cache_hits\": {},\n    \"stream_cache_misses\": {},\n    \
         \"cycle_memo_hits\": {},\n    \"cycle_memo_misses\": {},\n    \
         \"compile_mips\": {compile_mips:.2},\n    \
         \"replay_mips\": {replay_mips:.2},\n    \
         \"sweep_mips\": {sweep_mips:.2},\n    \
         \"baseline_sweep_mips\": {BASELINE_SWEEP_MIPS},\n    \
         \"speedup_vs_baseline\": {speedup:.2}\n  }}",
        sweep_scale.threads,
        sweep_delta.skipped_instructions,
        memo.streams().hits(),
        memo.streams().misses(),
        memo.cycle_hits(),
        memo.replays() + memo.compiles(),
    );

    // --- Multi-core socket smoke ---------------------------------------
    // A tiny backend bake-off sweep: catches socket/SharedLlc wall-clock
    // regressions and re-checks that the sweep is bit-reproducible (the
    // property the BENCH_multicore.json artifact relies on).
    let mc_scale = ExperimentScale {
        matrices: 3,
        min_rows: 96,
        max_rows: 192,
        density_range: (0.001, 0.026),
        seed: 9,
        threads: default_threads(),
    };
    let t = Instant::now();
    let mc = via_bench::multicore_sweep(&mc_scale);
    let mc_s = t.elapsed().as_secs_f64();
    let rerun = via_bench::multicore_sweep(&mc_scale);
    assert_eq!(rerun, mc, "multicore sweep must be bit-reproducible");
    let mc_four = mc.partitioned_geomean(4);
    eprintln!(
        "  multicore smoke: 4-core partitioned geomean {mc_four:.2}x \
         ({:.1} ms/sweep, reproducible)",
        mc_s * 1e3
    );
    let multicore_json = format!(
        "  \"multicore\": {{\n    \"matrices\": {},\n    \
         \"wall_seconds\": {mc_s:.4},\n    \
         \"geomean_speedup_4_cores\": {mc_four:.4}\n  }}",
        mc_scale.matrices
    );

    let json = format!(
        "{{\n  \"workloads\": [\n{entries}\n  ],\n{sweep_json},\n{multicore_json},\n  \
         \"simulated_instructions\": {instructions},\n  \
         \"wall_seconds\": {wall_s:.3},\n  \"mips\": {mips:.2},\n  \
         \"threads\": {}\n}}\n",
        default_threads()
    );
    std::fs::write(&out_path, &json).expect("write throughput json");
    eprintln!(
        "  simulated {:.1}M instructions at {mips:.2} MIPS (legacy workloads) -> {out_path}",
        instructions as f64 / 1e6
    );

    // --- Quick-tune pass -----------------------------------------------
    let tune_out = args
        .iter()
        .position(|a| a == "--autotune-out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_autotune.json".to_string());
    let cfg = TuneConfig::quick();
    let tune_memo = SweepMemo::new();
    let t = Instant::now();
    let tuned = tune(&cfg, &tune_memo);
    let tune_s = t.elapsed().as_secs_f64();
    assert!(tuned.is_sound(), "quick-tune soundness: {}", tuned.render());
    // Bit-identical replays: re-tuning through the warm memo answers from
    // cached streams and the cycle memo, yet picks the same winners.
    let t = Instant::now();
    let retuned = tune(&cfg, &tune_memo);
    let retune_s = t.elapsed().as_secs_f64();
    assert_eq!(retuned.rows, tuned.rows, "re-tune must be bit-identical");
    let geomean = tuned.geomean_speedup();
    assert!(
        geomean >= 1.10,
        "tuned-over-default geomean {geomean:.3}x under the 1.10x floor:\n{}",
        tuned.render()
    );

    let mut kernel_entries = String::new();
    for (i, (kernel, speedup)) in tuned.kernel_speedups().iter().enumerate() {
        if i > 0 {
            kernel_entries.push_str(",\n");
        }
        kernel_entries.push_str(&format!(
            "    {{\"kernel\": \"{kernel}\", \"geomean_speedup\": {speedup:.4}}}"
        ));
        eprintln!("  tune {kernel:<8} {speedup:.2}x geomean tuned-over-default");
    }
    let tune_json = format!(
        "{{\n  \"corpus\": {{\"matrices\": {}, \"seed\": {}}},\n  \
         \"rows\": {},\n  \"kernels\": [\n{kernel_entries}\n  ],\n  \
         \"geomean_speedup\": {geomean:.4},\n  \
         \"non_default_winners\": {},\n  \
         \"candidates\": {},\n  \"pruned\": {},\n  \
         \"prune_rate\": {:.4},\n  \"replayed\": {},\n  \
         \"stall_tiebreaks\": {},\n  \"bound_violations\": {},\n  \
         \"unsound_prunes\": {},\n  \
         \"tune_seconds\": {tune_s:.3},\n  \"retune_seconds\": {retune_s:.3},\n  \
         \"threads\": {}\n}}\n",
        cfg.scale.matrices,
        cfg.scale.seed,
        tuned.rows.len(),
        tuned.non_default_winners(),
        tuned.candidates,
        tuned.pruned,
        tuned.prune_rate(),
        tuned.replayed,
        tuned.stall_tiebreaks,
        tuned.bound_violations,
        tuned.unsound_prunes,
        cfg.scale.threads,
    );
    std::fs::write(&tune_out, &tune_json).expect("write autotune json");
    eprintln!(
        "  quick-tune: {geomean:.2}x geomean over {} rows in {tune_s:.1}s \
         (re-tune {retune_s:.1}s from the memo) -> {tune_out}",
        tuned.rows.len()
    );
}
