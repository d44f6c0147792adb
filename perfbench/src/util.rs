//! Shared helpers: seeded randomness, sample statistics, process
//! facts (peak memory, build stamp) and the metric record printed at
//! the end of a run.

use std::time::Duration;

use mcds_core::splitmix64;

/// A seeded SplitMix64 stream: the benchmark's only source of
/// randomness, so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6d63_6473_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A set of measurements with nearest-rank quantiles.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// The `q`-quantile (nearest rank); 0 when empty. Infinite samples
    /// (failed requests) sort last.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Whether the `q`-quantile has at least ten samples beyond it.
    pub fn resolves(&self, q: f64) -> bool {
        (self.0.len() as f64 * (1.0 - q)).floor() >= 10.0
    }
}

/// The quietest quarter of a measurement sequence: `values` (in the
/// order they were taken) is cut into `windows` consecutive windows, and
/// the windows with the lowest medians are pooled. Interference from
/// other tenants of a shared host only ever slows a window down, so the
/// quietest windows are the ones that repeat from run to run.
pub fn quiet_windows(values: &[f64], windows: usize) -> Samples {
    let size = values.len().div_ceil(windows.max(1)).max(1);
    let mut chunks: Vec<(f64, &[f64])> = values.chunks(size).map(|c| (median(c), c)).collect();
    chunks.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut quiet = Samples::default();
    for (_, c) in chunks.iter().take(chunks.len().div_ceil(4)) {
        for &v in *c {
            quiet.push(v);
        }
    }
    quiet
}

/// Median of a non-empty list of values.
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Core count, build profile, compiler and source revision, as one
/// JSON object.
pub fn stamp() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    format!(
        "{{\"cores\":{cores},\"profile\":\"{profile}\",\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        rustc.replace('"', "'"),
        git_rev()
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile or derivation, for the report line.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Prints one report line per metric, then the result object as the
/// last line of standard output.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<28} {:>16} {:<8} {}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.note
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}

fn fmt_value(v: f64) -> String {
    if v.abs() >= 1e6 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinity; a saturated latency reads as f64::MAX.
        format!("{}", f64::MAX)
    }
}
