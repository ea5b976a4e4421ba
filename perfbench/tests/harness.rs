//! Self-tests of the benchmark harness: order statistics, span self time,
//! metric names, failure counting, sliced pass timing and the metric
//! tables against `BENCHMARK.json`.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use via_core::BackendKind;
use via_formats::{gen, reference, Coo, Csr};
use via_kernels::{spmv, SimContext};
use via_perfbench::host::HostSpeed;
use via_perfbench::probe::{probe_leg, LegProfile};
use via_perfbench::report::{
    csr_matches, cycles_digest, result_line, valid_metric_name, vec_matches, Metric, Tally,
};
use via_perfbench::run::{complete_per_layer, per_layer_names, Args, Timing};
use via_perfbench::stats::{median, quartiles};
use via_perfbench::trace::{layer_self_times, self_times, Span, Tracer};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_handles_odd_even_and_unsorted_input() {
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    assert!(close(median(&[]), 0.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, q2, q3) = quartiles(&ten);
    assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    let (q1, q2, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert!(close(q1, 1.5) && close(q2, 3.0) && close(q3, 4.5));
    // Two values extrapolate: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
    assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        point: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("harness.run", 0, 100, None),
        span("engine.replay", 10, 40, Some(0)),
        // Overlaps the first child: counted once.
        span("mem.hierarchy", 30, 60, Some(0)),
        span("verify.program", 15, 20, Some(1)),
        // Runs past its parent: clipped to the parent's interval.
        span("compile.record", 90, 120, Some(0)),
    ];
    let own = self_times(&spans);
    assert_eq!(own, vec![100 - 50 - 10, 30 - 5, 30, 5, 30]);
    let layers = layer_self_times(&spans);
    assert_eq!(layers["harness"], 40);
    assert_eq!(layers["engine"], 25);
    assert_eq!(layers["verify"], 5);
}

#[test]
fn traced_self_times_add_up_to_the_root() {
    let mut t = Tracer::new();
    t.span("harness.run", |t| {
        for p in 0..3 {
            t.set_point(p);
            t.span("harness.point", |t| {
                t.span("kernels.run", |t| {
                    t.span("engine.replay", |_| {
                        std::hint::black_box((0..1000).sum::<u64>())
                    })
                });
                t.span("verify.program", |_| ());
            });
        }
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 1 + 3 * 4);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans.last().map(|s| s.point), Some(2));
    let total: u64 = self_times(spans).iter().sum();
    assert_eq!(total, spans[0].duration_ns());
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for good in [
        "setup_s",
        "engine.cpi.dram_bw",
        "socket.ns_per_inst.n8",
        "a-b.c_9",
        "9x",
    ] {
        assert!(valid_metric_name(good), "{good}");
    }
    let long = "x".repeat(65);
    for bad in ["", "a b", ".x", "_x", "x/y", "x:y", "é", long.as_str()] {
        assert!(!valid_metric_name(bad), "{bad}");
    }
    for (name, unit) in per_layer_names() {
        assert!(valid_metric_name(&name), "{name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
    }
}

/// The `"name"` values inside one top-level array of `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let per_layer: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(benchmark_names("per_layer"), per_layer);
    assert_eq!(
        benchmark_names("end_to_end"),
        [
            "setup_s",
            "points_per_s",
            "warm_points_per_s",
            "peak_rss_mb"
        ]
    );
    let completed = complete_per_layer(vec![Metric::new("engine.cpi", 1.5, "cycles/inst")]);
    assert_eq!(completed.len(), per_layer.len());
    assert!(completed
        .iter()
        .any(|m| m.name == "engine.cpi" && m.value == 1.5));
    assert!(completed
        .iter()
        .filter(|m| m.name != "engine.cpi")
        .all(|m| m.value == 0.0));
}

#[test]
fn sliced_passes_give_every_end_to_end_metric() {
    let nap = || std::thread::sleep(std::time::Duration::from_millis(20));
    let (built, mut timing) = Timing::setup(|| {
        nap();
        7
    });
    assert_eq!(built, 7);
    for warm in [false, true] {
        timing.slice(nap);
        timing.slice(nap);
        timing.end_pass(10, warm);
    }
    // A discarded pass leaves no rate behind.
    timing.slice(|| ());
    timing.discard_pass();
    let metrics = timing.metrics();
    let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, benchmark_names("end_to_end"));
    assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    assert_eq!(timing.lines().len(), 2);
}

#[test]
fn host_speed_is_positive_and_recorded_per_interval() {
    let mut host = HostSpeed::new();
    let speeds = [host.interval(), host.interval()];
    assert!(speeds.iter().all(|s| s.is_finite() && *s > 0.0));
    assert_eq!(host.intervals(), &speeds);
}

fn small_matrix() -> Csr {
    Csr::from_coo(
        &Coo::from_triplets(
            4,
            4,
            [
                (0, 0, 2.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 4.0),
                (3, 3, 5.0),
                (3, 1, 0.5),
            ],
        )
        .unwrap(),
    )
}

#[test]
fn a_corrupted_output_counts_as_failed() {
    let a = gen::uniform(64, 64, 0.1, 7);
    let x = gen::dense_vector(64, 7);
    let want = reference::spmv(&a, &x);
    let run = spmv::csr_vec(&a, &x, &SimContext::default());
    let mut tally = Tally::default();
    assert!(tally.check(vec_matches(&run.output, &want)));
    let mut corrupted = run.output.clone();
    corrupted[17] += 1e-3;
    assert!(!tally.check(vec_matches(&corrupted, &want)));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(close(tally.failed_share(), 0.5));

    let m = small_matrix();
    assert!(csr_matches(&m, &m));
    let mut data = m.data().to_vec();
    data[3] = -4.0;
    let bad = Csr::from_raw(4, 4, m.row_ptr().to_vec(), m.col_idx().to_vec(), data).unwrap();
    assert!(!tally.check(csr_matches(&bad, &m)));
    assert_eq!(tally.failed, 2);

    let line = result_line(&tally, &[Metric::new("points_per_s", 12.5, "points/s")]);
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2,"));
    assert!(line.ends_with("\"points_per_s\": {\"value\": 12.5, \"unit\": \"points/s\"}}}"));
}

#[test]
fn a_stored_zero_equals_a_missing_entry() {
    let m = small_matrix();
    let coo = Coo::from_triplets(4, 4, m.iter().chain([(0, 3, 0.0)])).unwrap();
    let with_zero = Csr::from_coo(&coo);
    assert!(csr_matches(&with_zero, &m) && csr_matches(&m, &with_zero));
}

#[test]
fn a_clean_run_is_correct_and_nonfinite_values_are_not() {
    let mut tally = Tally::default();
    tally.check_many(4, true);
    let good = result_line(&tally, &[Metric::new("setup_s", 0.25, "s")]);
    assert!(good.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0,"));
    let bad = result_line(&tally, &[Metric::new("setup_s", f64::NAN, "s")]);
    assert!(bad.starts_with("{\"correct\": false"));
    assert!(bad.contains("\"value\": 0.0"));
}

#[test]
fn probed_legs_agree_and_verify_clean() {
    let a = gen::uniform(96, 96, 0.05, 3);
    let x = gen::dense_vector(96, 3);
    let ctx = SimContext::default();
    let mut t = Tracer::new();
    let mut prof = LegProfile::default();
    let leg = probe_leg(&mut t, &mut prof, &ctx, BackendKind::Via, |c| {
        spmv::via_csr(&a, &x, c)
    });
    assert!(leg.consistent);
    assert!(vec_matches(&leg.output, &reference::spmv(&a, &x)));
    assert_eq!(prof.legs, 1);
    assert_eq!(prof.verify_errors, 0);
    assert_eq!(prof.instructions, leg.stream.len() as u64);
    assert!(prof.mem_accesses > 0);
    let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
    for want in [
        "kernels.run",
        "compile.record",
        "verify.program",
        "engine.replay",
        "mem.hierarchy",
    ] {
        assert!(names.contains(&want), "{want} missing from {names:?}");
    }
}

#[test]
fn digest_depends_on_every_cycle_and_its_order() {
    let a = cycles_digest([1, 2, 3]);
    assert_eq!(a, cycles_digest([1, 2, 3]));
    assert_ne!(a, cycles_digest([1, 3, 2]));
    assert_ne!(a, cycles_digest([1, 2, 4]));
}

#[test]
fn command_line_parses_and_rejects_bad_values() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let args = parse("--workload tune_search --seed 7 --seconds 10 --trace 1").unwrap();
    assert_eq!(args.workload, "tune_search");
    assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
    assert!(parse("--workload x --seed -1 --seconds 1 --trace 0").is_err());
    assert!(parse("--workload x --seed 1 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload x --seed 1 --seconds 1 --trace 2").is_err());
    assert!(parse("--seed 1 --seconds 1 --trace 0").is_err());
    assert!(parse("--workload x --seed 1 --seconds 1 --bogus 0").is_err());
}
