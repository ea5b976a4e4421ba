//! What every workload shares: the command line, set-up repetition, the
//! timed loop, the metric tables and the traced-run summary.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host::HostSpeed;
use crate::report::{peak_rss_mib, Metric, Tally};
use crate::stats::{median, quartiles};
use crate::trace::{layer_self_times, Span, HARNESS};

/// Worker threads every workload runs with (the container's `nproc`).
pub const THREADS: usize = 2;

/// Set-up runs at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Minimum host time spent repeating set-up.
pub const SETUP_SECONDS: f64 = 1.0;

/// Timed repetitions a run makes even when `--seconds` has elapsed.
pub const MIN_REPS: usize = 3;

/// Kernel families, for per-family instruction counts and host shares.
pub const FAMILIES: [&str; 5] = ["spmv", "spma", "spmm", "sptrsv", "symgs"];

/// Layers the traced run attributes self time to (span-name prefixes);
/// the harness's own share is reported apart.
pub const LAYERS: [&str; 10] = [
    "formats", "kernels", "compile", "verify", "engine", "mem", "socket", "analyze", "memo",
    "campaign",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed points.
    pub tally: Tally,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    /// Spans of a traced run (written out when the run ends).
    pub spans: Vec<Span>,
}

/// Runs `build` at least [`SETUP_REPEATS`] times and for at least
/// [`SETUP_SECONDS`], and returns the last result with the median host
/// time of one call in seconds.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_SECONDS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran at least once"), median(&times))
}

/// Calls `rep(i)` for i = 0, 1, … until `seconds` have passed since the
/// first call and at least `min_reps` calls were made.
pub fn repeat_for(seconds: f64, min_reps: usize, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < min_reps || start.elapsed() < budget {
        rep(i);
        i += 1;
    }
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The timings of an end-to-end run: set-up and every timed pass, raw and
/// scaled to the reference host speed (see [`crate::host`]).
///
/// A pass is timed in slices of a few tenths of a second with the host
/// speed measured between them, so each slice is scaled by the speed of
/// the host while it ran.
#[derive(Debug)]
pub struct Timing {
    host: HostSpeed,
    setup_raw_s: f64,
    setup_s: f64,
    /// Raw and scaled seconds of the pass in progress.
    pass: (f64, f64),
    cold_raw: Vec<f64>,
    warm_raw: Vec<f64>,
    cold: Vec<f64>,
    warm: Vec<f64>,
}

impl Timing {
    /// Runs set-up as [`setup_median`] does, with the host speed measured
    /// before and after, and returns its last result.
    pub fn setup<T>(build: impl FnMut() -> T) -> (T, Timing) {
        let mut host = HostSpeed::new();
        let (out, setup_raw_s) = setup_median(build);
        let setup_s = setup_raw_s * host.interval();
        let timing = Timing {
            host,
            setup_raw_s,
            setup_s,
            pass: (0.0, 0.0),
            cold_raw: Vec::new(),
            warm_raw: Vec::new(),
            cold: Vec::new(),
            warm: Vec::new(),
        };
        (out, timing)
    }

    /// Runs `f`, one slice of the pass in progress, then measures the host
    /// speed, and adds the slice's host seconds, raw and scaled by the
    /// host speed since the previous measurement, to the pass.
    pub fn slice<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        let speed = self.host.interval();
        self.pass.0 += secs;
        self.pass.1 += secs * speed;
        out
    }

    /// Drops the pass in progress (it failed; its points count as failed).
    pub fn discard_pass(&mut self) {
        self.pass = (0.0, 0.0);
    }

    /// Ends the pass in progress: its `points` over its sliced seconds
    /// give one cold (or warm) rate, raw and scaled.
    pub fn end_pass(&mut self, points: usize, warm: bool) {
        let (raw_s, scaled_s) = std::mem::take(&mut self.pass);
        let (raw, scaled) = if warm {
            (&mut self.warm_raw, &mut self.warm)
        } else {
            (&mut self.cold_raw, &mut self.cold)
        };
        raw.push(points as f64 / raw_s);
        scaled.push(points as f64 / scaled_s);
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("points_per_s", median(&self.cold), "points/s"),
            Metric::new("warm_points_per_s", median(&self.warm), "points/s"),
            Metric::new("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), "MiB"),
        ]
    }

    /// The host speed and the unscaled figures, for the log.
    pub fn lines(&self) -> Vec<String> {
        let (q1, q2, q3) = quartiles(self.host.intervals());
        vec![
            format!(
                "host speed (reference host = 1): quartiles {q1:.4} {q2:.4} {q3:.4} over {} intervals",
                self.host.intervals().len()
            ),
            format!(
                "unscaled: setup_s {:.6}, points_per_s {:.3} over {} passes, warm_points_per_s {:.3} over {} passes",
                self.setup_raw_s,
                median(&self.cold_raw),
                self.cold_raw.len(),
                median(&self.warm_raw),
                self.warm_raw.len()
            ),
        ]
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer a workload does not call reads
/// 0 there (the workload table in `perfbench/README.md` lists which).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("formats.gen_ns_per_nnz".into(), "ns/nnz"),
        ("formats.convert_ns_per_nnz".into(), "ns/nnz"),
        ("kernels.emit_ns_per_inst".into(), "ns/inst"),
    ];
    for f in FAMILIES {
        out.push((format!("kernels.instructions.{f}"), "count"));
    }
    for f in FAMILIES {
        out.push((format!("kernels.host_share.{f}"), "ratio"));
    }
    out.extend([
        ("verify.ns_per_inst".into(), "ns/inst"),
        ("verify.errors".into(), "count"),
        ("compile.record_ns_per_inst".into(), "ns/inst"),
        ("compile.stream_bytes_per_inst".into(), "B/inst"),
        ("engine.replay_ns_per_inst".into(), "ns/inst"),
        ("engine.stall_accounting_overhead".into(), "ratio"),
        ("sim.raw_mips".into(), "MIPS"),
        ("engine.cpi".into(), "cycles/inst"),
    ]);
    for cause in via_sim::StallCause::ALL {
        out.push((format!("engine.cpi.{}", cause.name()), "cycles/inst"));
    }
    out.extend([
        ("mem.access_ns".into(), "ns"),
        ("mem.l1_hit_ratio".into(), "ratio"),
        ("mem.l2_hit_ratio".into(), "ratio"),
        ("mem.l3_hit_ratio".into(), "ratio"),
        ("mem.dram_bytes_per_inst".into(), "B/inst"),
        ("mem.dram_wait_share".into(), "ratio"),
    ]);
    for n in [1, 2, 4, 8] {
        out.push((format!("socket.ns_per_inst.n{n}"), "ns/inst"));
    }
    out.extend([
        ("socket.core_imbalance.n8".into(), "ratio"),
        ("socket.efficiency.n8".into(), "ratio"),
        ("analyze.liveness_ns_per_inst".into(), "ns/inst"),
        ("analyze.alias_ns_per_inst".into(), "ns/inst"),
        ("analyze.reuse_ns_per_inst".into(), "ns/inst"),
        ("analyze.bound_ns_per_inst".into(), "ns/inst"),
        ("analyze.total_ns_per_inst".into(), "ns/inst"),
        ("analyze.cache_hit_ratio".into(), "ratio"),
        ("tune.prune_ratio".into(), "ratio"),
        ("tune.warm_recompiles_per_point".into(), "count/point"),
        ("memo.stream_hit_ratio".into(), "ratio"),
        ("memo.cycle_hit_ratio".into(), "ratio"),
        ("memo.lookup_ns".into(), "ns"),
        ("sim.effective_mips".into(), "MIPS"),
        ("store.bytes_per_row".into(), "B/row"),
        ("store.serialize_ns_per_row".into(), "ns/row"),
        ("exec.job_spawn_us".into(), "us"),
        ("exec.jobs_per_worker_max_over_mean".into(), "ratio"),
        ("trace.overhead".into(), "ratio"),
        ("trace.harness_share".into(), "ratio"),
    ]);
    for layer in LAYERS {
        out.push((format!("trace.self_share.{layer}"), "ratio"));
    }
    out
}

/// Puts `measured` into [`per_layer_names`] order, filling the metrics of
/// layers this workload does not call with 0.
///
/// # Panics
///
/// Panics if `measured` holds a name the table lacks (a harness bug).
pub fn complete_per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    let table = per_layer_names();
    for m in &measured {
        assert!(
            table.iter().any(|(n, _)| *n == m.name),
            "per-layer metric {} is missing from the table",
            m.name
        );
    }
    table
        .into_iter()
        .map(|(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

/// The traced-run summary: self-time share of each layer and of the
/// harness (together exactly 1 over the root spans), and the overhead
/// against an untraced run of the same points.
pub fn trace_summary(spans: &[Span], traced_wall_s: f64, untraced_wall_s: f64) -> Vec<Metric> {
    let by_layer = layer_self_times(spans);
    let total: u64 = by_layer.values().sum();
    let share = |layer: &str| {
        if total == 0 {
            0.0
        } else {
            by_layer.get(layer).copied().unwrap_or(0) as f64 / total as f64
        }
    };
    let mut out = vec![
        Metric::new(
            "trace.overhead",
            if untraced_wall_s > 0.0 {
                traced_wall_s / untraced_wall_s
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("trace.harness_share", share(HARNESS), "ratio"),
    ];
    for layer in LAYERS {
        out.push(Metric::new(
            format!("trace.self_share.{layer}"),
            share(layer),
            "ratio",
        ));
    }
    out
}

/// Lines describing the layer split of a traced run, for the log.
pub fn trace_lines(spans: &[Span]) -> Vec<String> {
    let by_layer = layer_self_times(spans);
    let total: u64 = by_layer.values().sum();
    let mut lines = vec![format!(
        "traced self time by layer ({} spans, {:.3} s):",
        spans.len(),
        total as f64 / 1e9
    )];
    for (layer, ns) in &by_layer {
        lines.push(format!(
            "  {layer:<10} {:>9.3} s  {:>6.2}%",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / total.max(1) as f64
        ));
    }
    lines
}

/// A scratch directory for one run, inside the current directory, removed
/// on drop.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the current directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating it.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Writes a traced run's spans as Chrome trace JSON to
/// `.bench_work/traces/<workload>-seed<seed>.json`, returning the path.
///
/// # Errors
///
/// Any I/O error writing the file.
pub fn write_spans(workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = Path::new(".bench_work").join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    std::fs::write(&path, crate::trace::chrome_json(spans))?;
    Ok(path)
}
