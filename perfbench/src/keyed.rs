//! `keyed_zipf`: keyed F0 updates with Zipf key popularity into one
//! `F0SketchStore<u64>` under a byte budget small enough to evict, with a
//! query (estimates of fixed hot and cold key samples) every fixed number
//! of `ingest_batch` calls.

use crate::trace::Tracer;
use crate::util::{median, mix64, ms, vm_hwm_mib, Rng, RunClock};
use crate::{Ctx, Outcome};
use knw_core::F0Config;
use knw_store::{F0SketchStore, StoreConfig, DEFAULT_PROMOTE_THRESHOLD};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Key space (ranks 0..KEYS, mapped to `u64` key ids by a fixed bijection).
/// Every key is touched early in a run, so the key table stops growing and
/// the run measures a store in steady state.
const KEYS: usize = 1 << 16;
/// Zipf exponent of key popularity.
const ZIPF: f64 = 1.0;
/// Per-key item universe.
const UNIVERSE: u64 = 1 << 16;
/// Distinct items a hot key can receive: a fixed part of the universe,
/// small enough that the hot sample sees every one, and well below the
/// universe, where a sketch's levels would clamp and its error grow past ε.
const ITEMS: u64 = 1 << 10;
/// The most popular ranks, whose keys draw from `ITEMS` and promote.
const HOT_KEYS: usize = 256;
/// Distinct items a tail key can receive: below the promote threshold, so
/// the tail stays sparse and the promoted set stays the hot keys.
const TAIL_ITEMS: u64 = 16;
pub const EPSILON: f64 = 0.05;
const STORE_SEED: u64 = 7;
pub const BATCH: usize = 8 << 10;
/// Resident-tier budget: room for the promoted hot keys and a small part
/// of the sparse tail, which is evicted and reloaded.
pub const BUDGET: usize = 2 << 20;
const HOT: usize = 16;
const COLD: usize = 1024;
/// A spare set-up after every query (41 samples in 40 queries).
const SETUP_EVERY: usize = 1;

struct Size {
    queries: usize,
    query_every: usize,
    budget: usize,
}

impl Size {
    /// The set-up batch, then `queries` periods of `query_every` batches.
    fn batches(&self) -> usize {
        1 + self.queries * self.query_every
    }

    /// Batches generated before timing starts; the stream repeats them.
    fn pass_batches(&self) -> usize {
        self.batches().min(PASS_BATCHES)
    }
}

/// Batches in one pass of the stream (2M updates): enough for every tail
/// key to be touched, small enough that the pregenerated pass does not
/// dominate the peak RSS.
const PASS_BATCHES: usize = 256;

/// Batch `index` of the stream (the pass read cyclically).
fn batch(pass: &[(u64, u64)], index: usize) -> &[(u64, u64)] {
    let start = (index * BATCH) % pass.len();
    &pass[start..start + BATCH]
}

fn size(ctx: &Ctx) -> Size {
    if ctx.tiny {
        return Size {
            queries: 8,
            query_every: 2,
            budget: 256 << 10,
        };
    }
    // 80 batches (0.66M updates) and 2 queries per second of run time: 40
    // queries at 20 s put the tail at p75, which CPU time stolen by the
    // host moves less than p90.
    Size {
        queries: 2 * ctx.seconds as usize,
        query_every: 40,
        budget: BUDGET,
    }
}

/// The workload's store: ε, item universe, seed and budget set, defaults
/// otherwise.
pub fn store(budget: usize) -> F0SketchStore<u64> {
    F0SketchStore::new(
        StoreConfig::new(F0Config::new(EPSILON, UNIVERSE))
            .with_budget_bytes(budget)
            .with_seed(STORE_SEED),
    )
}

/// Key ids are a fixed permutation of the ranks, so the hot keys (and
/// their per-key sketch seeds) are the same for every workload seed.
fn key_of(rank: usize) -> u64 {
    mix64(rank as u64 ^ 0x006B_6579)
}

/// Item `i < ITEMS` placed in the universe by a fixed odd multiplier.
fn item_of(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B1) & (UNIVERSE - 1)
}

/// `len` updates of the keyed stream (generated before timing starts).
fn stream(seed: u64, len: usize) -> Vec<(u64, u64)> {
    let mut cdf = Vec::with_capacity(KEYS);
    let mut total = 0.0;
    for rank in 1..=KEYS {
        total += (rank as f64).powf(-ZIPF);
        cdf.push(total);
    }
    let mut rng = Rng::new(seed, 0x20);
    (0..len)
        .map(|_| {
            let u = rng.unit() * total;
            let rank = cdf.partition_point(|&c| c < u).min(KEYS - 1);
            let items = if rank < HOT_KEYS { ITEMS } else { TAIL_ITEMS };
            (key_of(rank), item_of(rng.below(items)))
        })
        .collect()
}

/// Hot keys are the most popular ranks; cold keys are a fixed draw from
/// the tail, touched rarely enough to be evicted between touches.
fn samples() -> (Vec<u64>, Vec<u64>) {
    let hot = (0..HOT).map(key_of).collect();
    let mut rng = Rng::new(0, 0x30);
    let mut cold = HashSet::new();
    while cold.len() < COLD {
        cold.insert(KEYS / 64 + rng.below((KEYS / 4 - KEYS / 64) as u64) as usize);
    }
    let mut cold: Vec<usize> = cold.into_iter().collect();
    cold.sort_unstable();
    (hot, cold.into_iter().map(key_of).collect())
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, verify: bool) -> Result<Outcome, String> {
    let size = size(ctx);
    let pass = stream(ctx.seed, size.pass_batches() * BATCH);
    let (hot, cold) = samples();

    // Set-up: store allocation through the first update accepted.
    let bring_up = || {
        let mut fresh = store(size.budget);
        let (key, item) = pass[0];
        fresh.update(key, item);
        Ok(fresh)
    };
    let mut clock = RunClock::new(SETUP_EVERY);
    let mut store = clock.setup(bring_up)?;

    clock.start(vec!["self".into()]);
    store.ingest_batch(&pass[1..BATCH]);
    let mut query_ms = Vec::new();
    let mut answers = Vec::new();
    for index in 1..size.batches() {
        let chunk = batch(&pass, index);
        tr.span("knw-store", "ingest_batch", index as u64, |_| {
            store.ingest_batch(chunk)
        });
        if index % size.query_every == 0 {
            let qid = query_ms.len() as u64;
            let t = Instant::now();
            answers = tr.span("bench", "query", qid, |tr| {
                let mut answers = Vec::with_capacity(HOT + COLD);
                for key in &hot {
                    answers
                        .push(tr.span("knw-store", "estimate_hot", qid, |_| store.estimate(key)));
                }
                for key in &cold {
                    answers
                        .push(tr.span("knw-store", "estimate_cold", qid, |_| store.estimate(key)));
                }
                answers
            });
            query_ms.push(ms(t.elapsed()));
            clock.spare(query_ms.len() - 1, bring_up, |spare| {
                drop(spare);
                Ok(())
            })?;
        }
    }
    // The last query's answers are the final answer; every update after
    // the set-up one.
    let updates = size.batches() * BATCH;
    clock.end(updates - 1);
    let rss_peak_mb = vm_hwm_mib("self");
    let spanned = ((size.batches() - 1) * BATCH) as f64;
    let stats = store.stats();

    let answer = answers.iter().map(|a| a.unwrap_or(0.0)).sum();
    let mut out = Outcome::new(&clock, query_ms, answer);
    out.state_bytes = store.to_wire_bytes().len() as f64;
    out.rss_peak_mb = rss_peak_mb;
    out.attempted = (size.batches() + out.query_ms.len()) as u64;
    let ingest = tr.total_ns("knw-store", "ingest_batch");
    if ingest > 0.0 {
        out.layer("knw-store.ingest_ns_per_upd", ingest / spanned, "ns");
        out.layer_median_us(
            "knw-store.estimate_hot_us",
            &tr.durations("knw-store", "estimate_hot"),
        );
        out.layer_median_us(
            "knw-store.estimate_cold_us",
            &tr.durations("knw-store", "estimate_cold"),
        );
    }
    out.layer("knw-store.promotions", stats.promotions as f64, "count");
    out.layer("knw-store.evictions", stats.evictions as f64, "count");
    out.layer(
        "knw-store.reloads_per_ktouch",
        stats.reloads as f64 * 1e3 / updates as f64,
        "per_ktouch",
    );
    out.layer(
        "knw-store.resident_bytes",
        store.resident_bytes() as f64,
        "bytes",
    );
    out.layer("knw-store.cold_bytes", store.cold_bytes() as f64, "bytes");
    out.record("promotions", stats.promotions.to_string());
    out.record("evictions", stats.evictions.to_string());
    out.record("reloads", stats.reloads.to_string());
    if verify {
        out.check(
            stats.evictions > 0 && stats.reloads > 0,
            format!(
                "budget never bit: {} evictions, {} reloads",
                stats.evictions, stats.reloads
            ),
        );
        let keys: Vec<u64> = hot.iter().chain(&cold).copied().collect();
        gate(ctx, &size, &pass, &keys, &answers, &mut out);
    }
    Ok(out)
}

/// Exact per-key item sets for the sampled keys: every key still at or
/// below the promote threshold must report its exact count, and `rel_err`
/// is the median relative error over the promoted ones.
fn gate(
    ctx: &Ctx,
    size: &Size,
    pass: &[(u64, u64)],
    keys: &[u64],
    answers: &[Option<f64>],
    out: &mut Outcome,
) {
    let mut sets: HashMap<u64, HashSet<u64>> = keys.iter().map(|&k| (k, HashSet::new())).collect();
    for index in 0..size.batches() {
        if ctx.perturb && index % 2 == 1 {
            continue;
        }
        for (key, item) in batch(pass, index) {
            if let Some(set) = sets.get_mut(key) {
                set.insert(*item);
            }
        }
    }
    let mut errors = Vec::new();
    let mut sparse = 0;
    for (key, answer) in keys.iter().zip(answers) {
        let exact = sets[key].len() as f64;
        let estimate = answer.unwrap_or(0.0);
        if sets[key].len() > DEFAULT_PROMOTE_THRESHOLD {
            errors.push((estimate - exact).abs() / exact);
        } else {
            sparse += 1;
            out.check(
                estimate.to_bits() == exact.to_bits(),
                format!("sparse key {key:#x}: estimate {estimate} != exact {exact}"),
            );
        }
    }
    out.rel_err = median(&errors);
    out.record("promoted_sampled_keys", errors.len().to_string());
    out.record("sparse_sampled_keys", sparse.to_string());
}
