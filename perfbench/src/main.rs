//! The workspace benchmark driver: runs one workload for one seed and
//! prints, as its last stdout line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! knw-perfbench --workload f0_uniform|l0_churn_serve|keyed_zipf --seed N
//!               --seconds S --trace 0|1 --bin-dir DIR --out-dir DIR
//!               [--tiny] [--perturb]
//! ```
//!
//! `--seconds` sizes the work of a run (a fixed number of updates and
//! queries per second of run time, so every percentile has a stated sample
//! count).  `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced, then traced, replays its inputs through the stages
//! hidden inside one call, writes the spans under `--out-dir` and prints
//! the per-layer metrics.
//! `--tiny` shrinks every workload for the smoke test; `--perturb` feeds
//! the correctness references a perturbed stream, so the gates must trip.

mod f0;
mod keyed;
mod l0;
mod replay;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use util::{
    json_num, json_str, median, metric, metrics_json, reset_peak_rss, tail, Metric, RunClock,
};

pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub tiny: bool,
    pub perturb: bool,
    pub bin_dir: PathBuf,
    pub out_dir: PathBuf,
}

/// What one measured pass of a workload produced.
pub struct Outcome {
    setup_s: Vec<f64>,
    /// `(updates, wall seconds, CPU seconds)` of the ingest phase.
    ingest: (f64, f64, f64),
    query_ms: Vec<f64>,
    /// The final answer (compared between the untraced and traced pass).
    answer: f64,
    pub rel_err: f64,
    pub state_bytes: f64,
    pub rss_peak_mb: f64,
    pub attempted: u64,
    failures: Vec<String>,
    /// Per-layer metrics measured on the workload's own path.
    layer: Vec<Metric>,
    record: Vec<(String, String)>,
}

impl Outcome {
    pub fn new(clock: &RunClock, query_ms: Vec<f64>, answer: f64) -> Self {
        Outcome {
            setup_s: clock.setups.clone(),
            ingest: clock.ingest,
            query_ms,
            answer,
            rel_err: f64::NAN,
            state_bytes: 0.0,
            rss_peak_mb: 0.0,
            attempted: 0,
            failures: Vec::new(),
            layer: Vec::new(),
            record: Vec::new(),
        }
    }

    /// A correctness gate: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, failure: String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure);
        }
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(metric(name, value, unit));
    }

    pub fn layer_median_ms(&mut self, name: &str, durations_ns: &[f64]) {
        self.layer(name, median(durations_ns) / 1e6, "ms");
    }

    pub fn layer_median_us(&mut self, name: &str, durations_ns: &[f64]) {
        self.layer(name, median(durations_ns) / 1e3, "us");
    }

    pub fn record(&mut self, key: &str, value: String) {
        self.record.push((key.to_string(), value));
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The eight end-to-end metrics.
    fn end_to_end(&self) -> Vec<Metric> {
        let (tail_ms, _, _) = tail(&self.query_ms);
        vec![
            metric(
                "ingest_mupd_per_cpu_s",
                self.ingest.0 / self.ingest.2 / 1e6,
                "Mupd/cpu_s",
            ),
            metric("query_p50_ms", median(&self.query_ms), "ms"),
            metric("query_tail_ms", tail_ms, "ms"),
            metric("rel_err", self.rel_err, "ratio"),
            metric("state_bytes", self.state_bytes, "bytes"),
            metric("rss_peak_mb", self.rss_peak_mb, "MiB"),
            metric("setup_s", median(&self.setup_s), "s"),
            metric(
                "success_rate",
                1.0 - self.failed() as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
        ]
    }
}

/// Every per-layer metric a traced run reports, with its unit and the
/// workloads the layer map assigns it to (empty: every workload).  On the
/// other workloads the layer does no work and the metric reads 0.
const PER_LAYER: &[(&str, &str, &[&str])] = &[
    ("knw-engine.ingest_call_ns_per_upd", "ns", F0),
    ("knw-engine.snapshot_ms", "ms", F0),
    ("knw-engine.batcher_ns_per_upd", "ns", L0),
    ("knw-core.f0_insert_ns_per_upd", "ns", F0),
    ("knw-core.f0_merge_us", "us", F0),
    ("knw-core.f0_estimate_us", "us", F0),
    ("knw-core.coalesce_ns_per_upd", "ns", L0),
    ("knw-core.coalesce_out_ratio", "ratio", L0),
    ("knw-core.l0_update_ns_per_upd", "ns", L0),
    ("knw-core.l0_merge_ms", "ms", L0),
    ("knw-cluster.frame_encode_ns_per_upd", "ns", L0),
    ("knw-cluster.frame_decode_ns_per_upd", "ns", L0),
    ("knw-cluster.frame_bytes_per_upd", "bytes", L0),
    ("knw-cluster.shard_bytes", "bytes", L0),
    ("knw-cluster.shard_serialize_ms", "ms", L0),
    ("knw-cluster.shard_deserialize_ms", "ms", L0),
    ("knw-cluster.session.batch_write_ms", "ms", L0),
    ("knw-cluster.session.snapshot_rtt_ms", "ms", L0),
    ("knw-cluster.session.reply_bytes", "bytes", L0),
    ("knw-store.ingest_ns_per_upd", "ns", KEYED),
    ("knw-store.estimate_hot_us", "us", KEYED),
    ("knw-store.estimate_cold_us", "us", KEYED),
    ("knw-store.promotions", "count", KEYED),
    ("knw-store.evictions", "count", KEYED),
    ("knw-store.reloads_per_ktouch", "per_ktouch", KEYED),
    ("knw-store.resident_bytes", "bytes", KEYED),
    ("knw-store.cold_bytes", "bytes", KEYED),
    ("trace.self_ms.bench", "ms", ALL),
    ("trace.self_ms.knw-engine", "ms", F0_L0),
    ("trace.self_ms.knw-core", "ms", F0_L0),
    ("trace.self_ms.knw-cluster", "ms", L0),
    ("trace.self_ms.knw-store", "ms", KEYED),
    ("trace.overhead.ingest_mupd_per_cpu_s", "ratio", ALL),
    ("trace.overhead.query_p50_ms", "ratio", ALL),
    ("trace.overhead.query_tail_ms", "ratio", ALL),
    ("trace.overhead.setup_s", "ratio", ALL),
    ("trace.overhead.rss_peak_mb", "ratio", ALL),
];

const F0: &[&str] = &["f0_uniform"];
const L0: &[&str] = &["l0_churn_serve"];
const KEYED: &[&str] = &["keyed_zipf"];
const F0_L0: &[&str] = &["f0_uniform", "l0_churn_serve"];
const ALL: &[&str] = &[];

fn assigned(workloads: &[&str], workload: &str) -> bool {
    workloads.is_empty() || workloads.contains(&workload)
}

type RunFn = fn(&Ctx, &mut Tracer, bool) -> Result<Outcome, String>;
/// Replays of the workload's stages hidden inside one call.
type ReplayFn = fn(&Ctx, &mut Tracer) -> Result<Vec<Metric>, String>;

fn workload(name: &str) -> Option<(RunFn, ReplayFn)> {
    Some(match name {
        "f0_uniform" => (f0::run, replay::f0_uniform),
        "l0_churn_serve" => (l0::run, replay::l0_churn_serve),
        "keyed_zipf" => (keyed::run, replay::keyed_zipf),
        _ => return None,
    })
}

struct Args {
    workload: String,
    trace: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        trace: false,
        ctx: Ctx {
            seed: 1,
            seconds: 10,
            tiny: false,
            perturb: false,
            bin_dir: PathBuf::new(),
            out_dir: PathBuf::from("."),
        },
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.ctx.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--bin-dir" => out.ctx.bin_dir = PathBuf::from(value()?),
            "--out-dir" => out.ctx.out_dir = PathBuf::from(value()?),
            "--tiny" => out.ctx.tiny = true,
            "--perturb" => out.ctx.perturb = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn print_record(args: &Args, outcome: &Outcome) {
    let (_, percentile, samples) = tail(&outcome.query_ms);
    let mut fields = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.ctx.seed.to_string()),
        ("seconds".to_string(), args.ctx.seconds.to_string()),
        ("tiny".to_string(), args.ctx.tiny.to_string()),
        ("queries".to_string(), samples.to_string()),
        ("query_tail_percentile".to_string(), json_num(percentile)),
        (
            "query_tail_samples_beyond".to_string(),
            (if samples > 10 { 10 } else { 0 }).to_string(),
        ),
        ("ingest_updates".to_string(), json_num(outcome.ingest.0)),
        ("ingest_wall_s".to_string(), json_num(outcome.ingest.1)),
        ("ingest_cpu_s".to_string(), json_num(outcome.ingest.2)),
        (
            "ingest_wall_mupd_s".to_string(),
            json_num(outcome.ingest.0 / outcome.ingest.1 / 1e6),
        ),
        (
            "setup_repetitions".to_string(),
            outcome.setup_s.len().to_string(),
        ),
        (
            "setup_s_samples".to_string(),
            format!("{:?}", outcome.setup_s),
        ),
        (
            "query_ms_deciles".to_string(),
            format!("{:?}", deciles(&outcome.query_ms)),
        ),
        (
            "failures".to_string(),
            format!(
                "[{}]",
                outcome
                    .failures
                    .iter()
                    .map(|f| json_str(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    fields.extend(outcome.record.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", body.join(", "));
}

/// Minimum, the nine deciles and maximum of a sample.
fn deciles(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (0..=10)
        .map(|d| {
            sorted
                .get((sorted.len().saturating_sub(1)) * d / 10)
                .copied()
                .unwrap_or(f64::NAN)
        })
        .collect()
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics_json(metrics)
    )
}

fn traced(args: &Args, run: RunFn, replay: ReplayFn) -> Result<(Outcome, Vec<Metric>), String> {
    let ctx = &args.ctx;
    let untraced = run(ctx, &mut Tracer::new(false), true)?;
    let mut tr = Tracer::new(true);
    reset_peak_rss();
    let mut traced = run(ctx, &mut tr, false)?;
    let same = traced.answer.to_bits() == untraced.answer.to_bits();
    let failure = format!(
        "traced answer {} != untraced {}",
        traced.answer, untraced.answer
    );
    let mut outcome = untraced;
    outcome.check(same, failure);

    let replayed = tr.span("bench", "replay", 0, |tr| replay(ctx, tr))?;
    let mut values: BTreeMap<String, f64> =
        replayed.into_iter().map(|m| (m.name, m.value)).collect();
    values.extend(traced.layer.drain(..).map(|m| (m.name, m.value)));
    for (layer, self_ms) in tr.self_ms() {
        values.insert(format!("trace.self_ms.{layer}"), self_ms);
    }
    // Overhead is the relative cost of tracing: positive when the traced
    // pass is slower (lower throughput, or higher latency and memory).
    let (plain, with_spans) = (outcome.end_to_end(), traced.end_to_end());
    for (a, b) in plain.iter().zip(&with_spans) {
        let cost = if a.name == "ingest_mupd_per_cpu_s" {
            a.value / b.value
        } else {
            b.value / a.value
        };
        values.insert(format!("trace.overhead.{}", a.name), cost - 1.0);
    }
    outcome.record("trace_spans", tr.spans.len().to_string());
    let path = ctx
        .out_dir
        .join(format!("trace-{}-{}.jsonl", args.workload, ctx.seed));
    tr.write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome.record("trace_file", path.display().to_string());

    let own: Vec<&str> = PER_LAYER
        .iter()
        .filter(|&&(_, _, on)| assigned(on, &args.workload))
        .map(|&(name, _, _)| name)
        .collect();
    outcome.record("measured_per_layer", own.join(","));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, on)| match values.get(name) {
            _ if !assigned(on, &args.workload) => Ok(metric(name, 0.0, unit)),
            Some(&v) => Ok(metric(name, v, unit)),
            None => Err(format!("per-layer metric {name} was not measured")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((outcome, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("knw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((run, replay)) = workload(&args.workload) else {
        eprintln!("knw-perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.ctx.out_dir) {
        eprintln!("knw-perfbench: {}: {e}", args.ctx.out_dir.display());
        return ExitCode::from(2);
    }
    let result = if args.trace {
        traced(&args, run, replay)
    } else {
        run(&args.ctx, &mut Tracer::new(false), true).map(|o| {
            let metrics = o.end_to_end();
            (o, metrics)
        })
    };
    match result {
        Ok((outcome, metrics)) => {
            print_record(&args, &outcome);
            let correct = outcome.failures.is_empty();
            for failure in &outcome.failures {
                eprintln!("knw-perfbench: correctness gate failed: {failure}");
            }
            println!(
                "{}",
                result_line(correct, outcome.attempted, outcome.failed(), &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("knw-perfbench: run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
