//! Experiment input suites and scaling knobs.

use via_formats::gen::{self, GenMatrix, SuiteConfig};

/// How large an experiment to run. The paper's full evaluation uses 1,024
/// SuiteSparse matrices up to 20,000 rows; cycle-level simulation of that
/// sweep takes hours, so the default scales down while preserving the
/// density range and structural mix (see DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Number of matrices in the suite.
    pub matrices: usize,
    /// Smallest matrix dimension.
    pub min_rows: usize,
    /// Largest matrix dimension.
    pub max_rows: usize,
    /// Density range sampled per matrix (the paper's selection spans
    /// 0.01%–2.6%; scaled-down matrices sometimes need the upper part of
    /// the range to reach the paper's per-row non-zero counts).
    pub density_range: (f64, f64),
    /// Suite seed.
    pub seed: u64,
    /// Worker threads for the per-matrix sweep (results are identical for
    /// any thread count; see `parallel_map`).
    pub threads: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            matrices: 40,
            min_rows: 256,
            max_rows: 2048,
            density_range: (0.0001, 0.026),
            seed: 0x1A5,
            threads: default_threads(),
        }
    }
}

impl ExperimentScale {
    /// A quick smoke-test scale (`campaign tune --quick`, the `multicore`
    /// binary and CI).
    pub fn quick() -> Self {
        ExperimentScale {
            matrices: 8,
            min_rows: 128,
            max_rows: 512,
            density_range: (0.001, 0.026),
            seed: 7,
            threads: default_threads(),
        }
    }

    /// A scale suitable for the quadratic-cost SpMM sweep.
    pub fn spmm(&self) -> Self {
        ExperimentScale {
            matrices: self.matrices.min(24),
            min_rows: self.min_rows.min(128),
            max_rows: self.max_rows.min(384),
            density_range: self.density_range,
            seed: self.seed,
            threads: self.threads,
        }
    }

    /// The scale the Figure 9 design-space exploration needs: matrices
    /// large and dense enough that SSPM capacity matters (x-chunk reuse
    /// for SpMV; rows longer than the 4 KB CAM for SpMA).
    pub fn dse(&self) -> Self {
        ExperimentScale {
            matrices: self.matrices.min(8),
            min_rows: self.min_rows.max(2048),
            max_rows: self.max_rows.max(3072),
            density_range: (0.01, 0.08),
            seed: self.seed,
            threads: self.threads,
        }
    }

    /// Parses `--matrices`, `--max-rows`, `--min-rows`, `--seed`, and
    /// `--threads` from CLI arguments, starting from `self` as defaults.
    pub fn from_args(mut self, args: &[String]) -> Self {
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut grab = |field: &mut usize| {
                if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                    *field = v;
                }
            };
            match arg.as_str() {
                "--matrices" => grab(&mut self.matrices),
                "--max-rows" => grab(&mut self.max_rows),
                "--min-rows" => grab(&mut self.min_rows),
                "--threads" => grab(&mut self.threads),
                "--seed" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        self.seed = v;
                    }
                }
                _ => {}
            }
        }
        self.threads = self.threads.max(1);
        self
    }
}

/// A generated matrix suite.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The matrices with provenance metadata.
    pub matrices: Vec<GenMatrix>,
}

impl Suite {
    /// Generates the suite for a scale.
    pub fn generate(scale: &ExperimentScale) -> Self {
        let config = SuiteConfig {
            count: scale.matrices,
            min_rows: scale.min_rows,
            max_rows: scale.max_rows,
            density_range: scale.density_range,
            seed: scale.seed,
        };
        Suite {
            matrices: gen::suite(&config),
        }
    }

    /// Number of matrices.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }
}

/// Maps `f` over `items` on up to `threads` OS threads, preserving order.
/// The engine is single-threaded per run; experiments parallelize across
/// matrices. Results are identical for every thread count — only the
/// schedule changes.
///
/// # Panics
///
/// Re-raises any panic from `f` after all workers have been joined.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_jobs(items.len(), threads, |_, i| f(&items[i]))
}

/// The number of workers [`run_jobs`] starts for `jobs` jobs: `threads`
/// clamped to `1..=jobs` (one worker even when there is nothing to run).
pub(crate) fn worker_count(jobs: usize, threads: usize) -> usize {
    threads.max(1).min(jobs.max(1))
}

/// The crate's one job executor, behind [`parallel_map`] and the
/// campaign: calls `f(worker, index)` once for every index in `0..jobs`
/// and returns the results in index order. `worker` is in
/// `0..worker_count(jobs, threads)`; with one worker everything runs on
/// the calling thread.
///
/// Workers claim indices from a shared counter (dynamic load balancing:
/// simulated matrices vary widely in cost) and each writes only the result
/// slots it claimed, so completion needs no lock. A worker panic
/// propagates as itself once every worker has been joined, rather than as
/// lock poisoning in the other workers.
pub(crate) fn run_jobs<R, F>(jobs: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let threads = worker_count(jobs, threads);
    let mut results: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    if threads == 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(f(0, i));
        }
    } else {
        struct Slots<R>(*mut Option<R>);
        // SAFETY: workers write disjoint slots (each index is claimed
        // exactly once from the counter), and the Vec outlives the scope.
        unsafe impl<R: Send> Sync for Slots<R> {}
        let slots = Slots(results.as_mut_ptr());
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (slots, next, f) = (&slots, &next, &f);
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(threads);
            for w in 0..threads {
                workers.push(scope.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let r = f(w, i);
                    // SAFETY: `i` was claimed exclusively above.
                    unsafe {
                        let slot = slots.0.add(i);
                        // Backs the exclusive-claim invariant: a second
                        // writer would observe the slot already filled.
                        debug_assert!((*slot).is_none(), "slot {i} claimed twice");
                        *slot = Some(r);
                    };
                }));
            }
            // The scope alone only waits for the closures; joining waits
            // for each OS thread to exit, which hands its allocator arena
            // back before the next call spawns workers. Without it a
            // late-exiting worker makes the next call's workers open fresh
            // arenas, and the memory freed into the old ones is never
            // reused (repeated `tune` calls on a loaded 2-vCPU host grew
            // peak RSS by about a fifth).
            for w in workers {
                if let Err(panic) = w.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        // Backs the `Sync` SAFETY claim: the counter handed out every index
        // (so each slot had exactly one writer) before `results` is touched
        // again here on the parent thread.
        debug_assert!(
            next.load(std::sync::atomic::Ordering::Relaxed) >= jobs,
            "workers exited before claiming every index"
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Default worker-thread count for sweeps.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_args_parses() {
        let args: Vec<String> = ["--matrices", "5", "--max-rows", "300", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let s = ExperimentScale::default().from_args(&args);
        assert_eq!(s.matrices, 5);
        assert_eq!(s.max_rows, 300);
        assert_eq!(s.seed, 9);
    }

    #[test]
    fn suite_generation_is_deterministic() {
        let scale = ExperimentScale::quick();
        let a = Suite::generate(&scale);
        let b = Suite::generate(&scale);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.matrices.iter().zip(&b.matrices) {
            assert_eq!(x.csr, y.csr);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = parallel_map(&items, 8, |&i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty() {
        let items: Vec<usize> = vec![];
        let out: Vec<usize> = parallel_map(&items, 4, |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&i| {
                if i == 7 {
                    panic!("worker failure");
                }
                i
            })
        }));
        let payload = result.expect_err(
            "a panic in a worker must reach the caller, not vanish or \
             surface as lock poisoning",
        );
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker failure"));
    }

    #[test]
    fn parallel_map_is_thread_count_invariant() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&items, 1, |&i| i * i + 1);
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map(&items, threads, |&i| i * i + 1), serial);
        }
    }

    #[test]
    fn threads_flag_is_parsed_and_clamped() {
        let args: Vec<String> = ["--threads", "3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(ExperimentScale::default().from_args(&args).threads, 3);
        let zero: Vec<String> = ["--threads", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(ExperimentScale::default().from_args(&zero).threads, 1);
    }

    #[test]
    fn spmm_scale_is_bounded() {
        let s = ExperimentScale::default().spmm();
        assert!(s.max_rows <= 384);
        assert!(s.matrices <= 24);
    }

    #[test]
    fn dse_scale_is_large_and_dense() {
        let s = ExperimentScale::default().dse();
        assert!(s.min_rows >= 2048);
        assert!(s.density_range.0 >= 0.01);
    }
}
