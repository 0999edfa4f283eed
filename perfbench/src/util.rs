//! Seeded generators, order statistics, process memory and JSON output.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The SplitMix64 finalizer: a bijection on `u64`, so distinct inputs give
/// distinct outputs (used both as a mixer and as a keyed permutation).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: the benchmark's one pseudo-random source.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond it:
/// returns `(value, percentile, samples)`.  With ten or fewer samples it
/// falls back to the maximum (percentile 100).
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return (sorted.last().copied().unwrap_or(f64::NAN), 100.0, n);
    }
    let index = n - 11;
    (sorted[index], 100.0 * (n - 10) as f64 / n as f64, n)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn vm_hwm_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets this process's peak RSS to its current RSS (Linux `clear_refs`
/// code 5), so a second measured pass in one process reports its own peak.
/// Best effort: where the kernel refuses, the peak stays lifetime-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time (user + system, all threads, stolen time excluded) a process
/// has used, in seconds.
pub fn cpu_s(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // utime and stime are the 14th and 15th fields, in clock ticks of
    // 1/100 s; the command name before them is parenthesised.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    rest.split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum::<f64>()
        / 100.0
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (NaN and infinities, which JSON lacks, as null).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The run's clocks: set-up samples and the ingest clock.  Set-up is timed
/// at the first bring-up and again on a spare bring-up after every
/// `every`-th query, so its median samples the host across the run rather
/// than in one burst at the start; spares are kept off the ingest clock.
///
/// The ingest clock keeps wall time and the CPU time of the processes that
/// do the work.  A shared host can steal a quarter of a run's CPU time,
/// which moves wall-clock rates by up to half; the kernel leaves stolen
/// time out of a process's CPU time.
pub struct RunClock {
    pub setups: Vec<f64>,
    every: usize,
    start: Instant,
    paused: Duration,
    pids: Vec<String>,
    cpu_start: f64,
    /// `(updates, wall seconds, CPU seconds)` of the ingest phase.
    pub ingest: (f64, f64, f64),
}

impl RunClock {
    pub fn new(every: usize) -> Self {
        RunClock {
            setups: Vec::new(),
            every: every.max(1),
            start: Instant::now(),
            paused: Duration::ZERO,
            pids: Vec::new(),
            cpu_start: 0.0,
            ingest: (0.0, f64::NAN, f64::NAN),
        }
    }

    /// Times one bring-up as a set-up sample.
    pub fn setup<T>(&mut self, up: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let (out, took) = timed(up);
        self.setups.push(took.as_secs_f64());
        out
    }

    fn cpu(&self) -> f64 {
        self.pids.iter().map(|pid| cpu_s(pid)).sum()
    }

    /// Starts the ingest clock over the CPU time of processes `pids`.
    pub fn start(&mut self, pids: Vec<String>) {
        self.pids = pids;
        self.cpu_start = self.cpu();
        self.start = Instant::now();
        self.paused = Duration::ZERO;
    }

    /// Wall seconds on the ingest clock.
    pub fn seconds(&self) -> f64 {
        (self.start.elapsed() - self.paused).as_secs_f64()
    }

    /// Ends the ingest phase: the final answer is in hand and `updates`
    /// were accepted since the clock started.
    pub fn end(&mut self, updates: usize) {
        self.ingest = (updates as f64, self.seconds(), self.cpu() - self.cpu_start);
    }

    /// After query `query`: when a sample is due, brings a spare up (timed)
    /// and tears it down, all off the wall clock.
    pub fn spare<T>(
        &mut self,
        query: usize,
        up: impl FnOnce() -> Result<T, String>,
        down: impl FnOnce(T) -> Result<(), String>,
    ) -> Result<(), String> {
        if !query.is_multiple_of(self.every) {
            return Ok(());
        }
        let paused = Instant::now();
        let spare = self.setup(up)?;
        down(spare)?;
        self.paused += paused.elapsed();
        Ok(())
    }
}
