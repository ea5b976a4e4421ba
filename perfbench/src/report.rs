//! Metrics, failure accounting, output checks and the result line.

use via_formats::Csr;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_metric_name`]).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `points/s`, `ratio`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Attempted and failed work points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Points attempted.
    pub attempted: u64,
    /// Points that failed any check.
    pub failed: u64,
}

impl Tally {
    /// Counts one point; `ok == false` counts it as failed. Returns `ok`.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts `n` points that all passed or all failed.
    pub fn check_many(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Failed points over attempted points (`0.0` when nothing ran).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// FNV-1a over the little-endian bytes of `cycles`, in the order given:
/// equal digests on two commits mean bit-identical simulated cycle counts.
pub fn cycles_digest(cycles: impl IntoIterator<Item = u64>) -> u64 {
    via_sim::fnv1a64(cycles.into_iter().flat_map(u64::to_le_bytes))
}

/// Absolute tolerance for comparing a kernel output with the scalar
/// reference (the tuner's and the socket sweep's own tolerance).
pub const TOL: f64 = 1e-9;

/// Whether a dense output agrees with its reference element by element.
pub fn vec_matches(got: &[f64], want: &[f64]) -> bool {
    via_formats::vec_approx_eq(got, want, TOL)
}

/// Whether a sparse output agrees with its reference as a matrix: equal
/// shape, and every position within [`TOL`], where a position one side
/// does not store counts as zero.
pub fn csr_matches(got: &Csr, want: &Csr) -> bool {
    if got.rows() != want.rows() || got.cols() != want.cols() {
        return false;
    }
    (0..got.rows()).all(|r| {
        let (gc, gv) = got.row(r);
        let (wc, wv) = want.row(r);
        let (mut i, mut j) = (0, 0);
        while i < gc.len() || j < wc.len() {
            let (g, w) = match (gc.get(i), wc.get(j)) {
                (Some(a), Some(b)) if a == b => {
                    i += 1;
                    j += 1;
                    (gv[i - 1], wv[j - 1])
                }
                (Some(a), Some(b)) if a < b => {
                    i += 1;
                    (gv[i - 1], 0.0)
                }
                (Some(_), None) => {
                    i += 1;
                    (gv[i - 1], 0.0)
                }
                _ => {
                    j += 1;
                    (0.0, wv[j - 1])
                }
            };
            if (g - w).abs() > TOL {
                return false;
            }
        }
        true
    })
}

/// The last line of the benchmark's output: one JSON object with
/// `correct`, `attempted`, `failed` and `metrics`. `correct` is false when
/// any point failed, or any metric has an illegal name or a non-finite
/// value (which is then written as `0`, keeping the line valid JSON).
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let well_formed = metrics
        .iter()
        .all(|m| valid_metric_name(&m.name) && m.value.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && well_formed;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// A finite float with all its digits (Rust's shortest round-trip form),
/// always with a decimal point or exponent.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` in
/// `/proc/self/status`), or `None` where that file is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
