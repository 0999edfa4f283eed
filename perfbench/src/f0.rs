//! `f0_uniform`: uniform items over a 2^24 universe into a 2-shard
//! `ShardedF0Engine` of `KnwF0Sketch`, 64 Ki-item batches, a closed-loop
//! `snapshot()` + estimate query every fixed number of batches.

use crate::trace::Tracer;
use crate::util::{mix64, ms, vm_hwm_mib, RunClock};
use crate::{Ctx, Outcome};
use knw_cluster::WireF0Sketch;
use knw_core::{CardinalityEstimator, F0Config, KnwF0Sketch};
use knw_engine::{EngineConfig, ShardedF0Engine};
use std::time::Instant;

pub const UNIVERSE_BITS: u32 = 24;
pub const EPSILON: f64 = 0.05;
/// Fixed hash seed: the workload seed drives the inputs only, so with full
/// universe coverage the final answer (and `rel_err`) does not depend on
/// which seed a run drew.
pub const SKETCH_SEED: u64 = 7;
const SHARDS: usize = 2;
const BATCH: usize = 1 << 16;
/// A spare set-up after every this many queries (21 samples in 40 queries).
const SETUP_EVERY: usize = 2;

struct Size {
    queries: usize,
    query_every: usize,
}

impl Size {
    /// The set-up batch, then `queries` periods of `query_every` batches.
    fn batches(&self) -> usize {
        1 + self.queries * self.query_every
    }
}

fn size(ctx: &Ctx) -> Size {
    if ctx.tiny {
        return Size {
            queries: 8,
            query_every: 2,
        };
    }
    // 640 batches (42M items, 10 passes) and 2 queries per second of run
    // time: 40 queries at 20 s put the tail at p75, which the host's
    // scheduling noise moves least (p90 of sub-millisecond snapshots
    // flips between runs).
    Size {
        queries: 2 * ctx.seconds as usize,
        query_every: 320,
    }
}

pub fn config() -> F0Config {
    F0Config::new(EPSILON, 1 << UNIVERSE_BITS).with_seed(SKETCH_SEED)
}

/// The workload's topology: 2 shard threads of `KnwF0Sketch`, defaults
/// otherwise.
pub fn engine() -> ShardedF0Engine<KnwF0Sketch> {
    let cfg = config();
    ShardedF0Engine::new(EngineConfig::new(SHARDS), move |_| KnwF0Sketch::new(cfg))
}

/// Distinct items of the stream: a fixed quarter of the universe, so the
/// sketch runs in the regime it is built for (F0 well below the universe;
/// at F0 = universe its levels clamp and the error grows past ε).
pub const DISTINCT_BITS: u32 = 22;

/// One pass of the stream: every distinct item once, in a seeded order (a
/// bijection of `0..2^22` built from odd multipliers and xorshifts), placed
/// in the universe by a fixed odd multiplier.  The stream repeats the pass,
/// so after the first pass the distinct set is the same whatever the seed,
/// and the timed loop only reads items instead of generating them.
pub fn pass(seed: u64) -> Vec<u64> {
    const MASK: u64 = (1 << DISTINCT_BITS) - 1;
    const SCATTER: u64 = 0x9E37_79B1;
    let (a, b, c) = (mix64(seed) | 1, mix64(seed ^ 1), mix64(seed ^ 2) | 1);
    (0..1u64 << DISTINCT_BITS)
        .map(|i| {
            let mut x = (i.wrapping_mul(a).wrapping_add(b)) & MASK;
            x ^= x >> 13;
            x = x.wrapping_mul(c) & MASK;
            x ^= x >> 11;
            x.wrapping_mul(SCATTER) & ((1 << UNIVERSE_BITS) - 1)
        })
        .collect()
}

/// Batch `index` of the stream (the pass read cyclically).
pub fn batch(pass: &[u64], index: usize) -> &[u64] {
    let start = (index * BATCH) % pass.len();
    &pass[start..start + BATCH]
}

/// The first `len` items of the stream (the input of the kernel replay).
pub fn sample(ctx: &Ctx, len: usize) -> Vec<u64> {
    let pass = pass(ctx.seed);
    let mut items = Vec::with_capacity(len);
    let mut index = 0;
    while items.len() < len {
        items.extend_from_slice(&batch(&pass, index)[..(len - items.len()).min(BATCH)]);
        index += 1;
    }
    items
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, verify: bool) -> Result<Outcome, String> {
    let size = size(ctx);
    let pass = pass(ctx.seed);
    let first = batch(&pass, 0);

    // Set-up: engine construction (2 shard threads) through the first
    // update accepted.
    let bring_up = || {
        let mut fresh = engine();
        fresh.insert(first[0]);
        Ok(fresh)
    };
    let tear_down =
        |spare: ShardedF0Engine<KnwF0Sketch>| spare.finish().map(drop).map_err(|e| e.to_string());
    let mut clock = RunClock::new(SETUP_EVERY);
    let mut engine = clock.setup(bring_up)?;

    clock.start(vec!["self".into()]);
    engine.insert_batch(&first[1..]);
    let mut query_ms = Vec::new();
    for index in 1..size.batches() {
        tr.span("knw-engine", "insert_batch", index as u64, |_| {
            engine.insert_batch(batch(&pass, index))
        });
        if index % size.query_every == 0 {
            let qid = query_ms.len() as u64;
            let t = Instant::now();
            tr.span("bench", "query", qid, |tr| -> Result<(), String> {
                let snap = tr.span("knw-engine", "snapshot", qid, |_| engine.snapshot());
                let snap = snap.map_err(|e| e.to_string())?;
                let estimate = tr.span("knw-core", "estimate", qid, |_| snap.estimate());
                std::hint::black_box(estimate);
                Ok(())
            })?;
            query_ms.push(ms(t.elapsed()));
            clock.spare(qid as usize, bring_up, tear_down)?;
        }
    }
    // The final answer is one more query.
    let t = Instant::now();
    let merged = tr.span("bench", "final", 0, |tr| {
        tr.span("knw-engine", "finish", 0, |_| engine.finish())
    });
    let merged = merged.map_err(|e| e.to_string())?;
    let answer = tr.span("knw-core", "estimate", u64::MAX, |_| merged.estimate());
    query_ms.push(ms(t.elapsed()));
    // Every update after the set-up one.
    clock.end(size.batches() * BATCH - 1);
    let rss_peak_mb = vm_hwm_mib("self");

    let mut out = Outcome::new(&clock, query_ms, answer);
    out.state_bytes = merged.wire_bytes().len() as f64;
    out.rss_peak_mb = rss_peak_mb;
    out.attempted = (size.batches() + out.query_ms.len()) as u64;
    let spans = tr.durations("knw-engine", "insert_batch");
    if !spans.is_empty() {
        out.layer(
            "knw-engine.ingest_call_ns_per_upd",
            spans.iter().sum::<f64>() / ((size.batches() - 1) * BATCH) as f64,
            "ns",
        );
        out.layer_median_ms(
            "knw-engine.snapshot_ms",
            &tr.durations("knw-engine", "snapshot"),
        );
        out.layer_median_us(
            "knw-core.f0_estimate_us",
            &tr.durations("knw-core", "estimate"),
        );
    }
    if verify {
        gate(ctx, &size, &pass, answer, &mut out);
    }
    Ok(out)
}

/// Reference: one in-process sketch fed the same stream (bit-identical
/// estimate required) and the exact distinct count from a bitset.
fn gate(ctx: &Ctx, size: &Size, pass: &[u64], answer: f64, out: &mut Outcome) {
    let mut reference = KnwF0Sketch::new(config());
    let mut seen = vec![0u64; (1usize << UNIVERSE_BITS) / 64];
    for index in 0..size.batches() {
        if ctx.perturb && index % 2 == 1 {
            continue;
        }
        let items = batch(pass, index);
        reference.insert_batch(items);
        // The stream repeats its first pass, so that pass holds every item.
        if index * BATCH < pass.len() {
            for &item in items {
                seen[(item >> 6) as usize] |= 1 << (item & 63);
            }
        }
    }
    let exact: u64 = seen.iter().map(|w| u64::from(w.count_ones())).sum();
    out.rel_err = (answer - exact as f64).abs() / exact as f64;
    out.check(
        reference.estimate().to_bits() == answer.to_bits(),
        format!(
            "engine estimate {answer} != single-sketch reference {}",
            reference.estimate()
        ),
    );
    out.record("exact_distinct", exact.to_string());
}
