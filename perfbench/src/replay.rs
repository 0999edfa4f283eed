//! Single-threaded replays of a workload's own inputs through the public
//! function of each stage that runs hidden inside one call (a shard
//! thread, the serve loop or a worker), so the traced run can time it.
//! Every replay runs inside a span of its layer.

use crate::trace::Tracer;
use crate::util::{median, metric, timed, Metric};
use crate::{f0, l0, Ctx};
use knw_cluster::{encode_frame, BatchPayload, Frame, FrameDecoder, FrameView};
use knw_core::{coalesce_updates, KnwF0Sketch, MergeableEstimator};
use knw_engine::{RoutingPolicy, ShardBatcher, DEFAULT_BATCH_SIZE};

/// Inputs replayed per workload.
const LEN: usize = 1 << 20;
const TINY_LEN: usize = 1 << 16;
const REPS: usize = 101;
const BIG_REPS: usize = 3;

fn len(ctx: &Ctx) -> usize {
    if ctx.tiny {
        TINY_LEN
    } else {
        LEN
    }
}

fn ns_per(total: std::time::Duration, n: usize) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// Median duration of `reps` calls, in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| timed(&mut f).1.as_nanos() as f64)
        .collect();
    median(&samples)
}

/// `f0_uniform`'s shard threads: `KnwF0Sketch::insert_batch` on each
/// shard's half of the stream, then the merge `snapshot()` performs.  The
/// inputs go in twice and the second pass is timed, so lazy set-up is
/// excluded.
pub fn f0_uniform(ctx: &Ctx, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let items = f0::sample(ctx, len(ctx));
    let (mut left, mut right) = (
        KnwF0Sketch::new(f0::config()),
        KnwF0Sketch::new(f0::config()),
    );
    let half = items.len() / 2;
    let mut feed = || {
        for chunk in items[..half].chunks(1 << 16) {
            left.insert_batch(chunk);
        }
        for chunk in items[half..].chunks(1 << 16) {
            right.insert_batch(chunk);
        }
    };
    feed();
    let (_, took) = tr.span("knw-core", "f0_insert_batch", 0, |_| timed(feed));
    let merge = tr.span("knw-core", "f0_merge", 0, |_| {
        median_ns(REPS, || left.merge_from(&right).expect("same config"))
    });
    Ok(vec![
        metric(
            "knw-core.f0_insert_ns_per_upd",
            ns_per(took, items.len()),
            "ns",
        ),
        metric("knw-core.f0_merge_us", merge / 1e3, "us"),
    ])
}

/// `l0_churn_serve`'s hidden stages on its own `Batch` frames: the serve
/// loop's `FrameDecoder`, coalesce and 2-shard batcher, one worker's
/// `update_batch`, the shard merge and the shard serializer.
pub fn l0_churn_serve(ctx: &Ctx, tr: &mut Tracer) -> Result<Vec<Metric>, String> {
    let updates = l0::sample(ctx, len(ctx));
    let wire = updates
        .chunks(l0::FRAME)
        .map(|c| encode_frame(&Frame::Batch(BatchPayload::Updates(c.to_vec()))))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut decoded = 0;
    let (result, decode) = tr.span("knw-cluster.frame", "decode", 0, |_| {
        timed(|| -> Result<(), String> {
            let mut decoder = FrameDecoder::new();
            for bytes in &wire {
                decoder.push(bytes);
                while let Some(view) = decoder.next_view().map_err(|e| e.to_string())? {
                    if let FrameView::Updates(batch) = view {
                        decoded += batch.len();
                    }
                }
            }
            Ok(())
        })
    });
    result?;
    if decoded != updates.len() {
        return Err(format!("{decoded} of {} updates decoded", updates.len()));
    }

    let mut coalesced = Vec::new();
    let (_, coalesce) = tr.span("knw-core", "coalesce", 0, |_| {
        timed(|| {
            for frame in updates.chunks(l0::FRAME) {
                coalesced.push(coalesce_updates(frame));
            }
        })
    });
    let out_len: usize = coalesced.iter().map(Vec::len).sum();
    let mut shards: [Vec<Vec<(u64, i64)>>; 2] = [Vec::new(), Vec::new()];
    let (_, batcher) = tr.span("knw-engine", "batcher", 0, |_| {
        timed(|| {
            let mut batcher = ShardBatcher::new(RoutingPolicy::RoundRobin, 2, DEFAULT_BATCH_SIZE);
            let mut dispatch = |shard: usize, batch: Vec<(u64, i64)>| shards[shard].push(batch);
            for frame in &coalesced {
                batcher.extend_from_slice(frame, &mut dispatch);
            }
            batcher.flush(&mut dispatch);
        })
    });

    let spec = l0::spec();
    let build = || knw_cluster::build_l0(&spec).map_err(|e| e.to_string());
    let mut sketches = [build()?, build()?];
    let shard_input: usize = shards[0].iter().map(Vec::len).sum();
    // The first pass faults the sketch's pages in; the second is timed.
    for batch in &shards[0] {
        sketches[0].update_batch(batch);
    }
    let (_, update) = tr.span("knw-core", "l0_update_batch", 0, |_| {
        timed(|| {
            for batch in &shards[0] {
                sketches[0].update_batch(batch);
            }
        })
    });
    for batch in &shards[1] {
        sketches[1].update_batch(batch);
    }
    let [first, second] = &mut sketches;
    let merge = tr.span("knw-core", "l0_merge", 0, |_| {
        median_ns(BIG_REPS, || {
            first.merge_dyn(second.as_ref()).expect("same spec")
        })
    });
    let serialize = tr.span("knw-cluster", "shard_serialize", 0, |_| {
        median_ns(BIG_REPS, || {
            std::hint::black_box(first.wire_bytes());
        })
    });
    Ok(vec![
        metric(
            "knw-cluster.frame_decode_ns_per_upd",
            ns_per(decode, updates.len()),
            "ns",
        ),
        metric(
            "knw-core.coalesce_ns_per_upd",
            ns_per(coalesce, updates.len()),
            "ns",
        ),
        metric(
            "knw-core.coalesce_out_ratio",
            out_len as f64 / updates.len().max(1) as f64,
            "ratio",
        ),
        metric(
            "knw-engine.batcher_ns_per_upd",
            ns_per(batcher, out_len),
            "ns",
        ),
        metric(
            "knw-core.l0_update_ns_per_upd",
            ns_per(update, shard_input),
            "ns",
        ),
        metric("knw-core.l0_merge_ms", merge / 1e6, "ms"),
        metric("knw-cluster.shard_serialize_ms", serialize / 1e6, "ms"),
    ])
}

/// `keyed_zipf` runs in the calling thread: its spans cover every stage.
pub fn keyed_zipf(_: &Ctx, _: &mut Tracer) -> Result<Vec<Metric>, String> {
    Ok(Vec::new())
}
