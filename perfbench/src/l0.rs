//! `l0_churn_serve`: the turnstile burst-churn stream sent by one client
//! over one TCP session to `knw-aggregate --serve` fronting two
//! `knw-worker --listen` processes, with a `Snapshot` every fixed number of
//! `Batch` frames.  Everything goes through the shipped binaries and the
//! public frame codec.

use crate::trace::Tracer;
use crate::util::{mean, mix64, ms, vm_hwm_mib, Rng, RunClock};
use crate::{Ctx, Outcome};
use knw_cluster::{
    encode_frame, l0_shard_from_bytes, BatchPayload, Frame, FrameDecoder, HelloConfig, SketchSpec,
};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub const UNIVERSE: u64 = 1 << 24;
pub const EPSILON: f64 = 0.05;
/// Fixed hash seed; the workload seed drives the inputs only.
pub const SKETCH_SEED: u64 = 7;
/// Updates per `Batch` frame.
pub const FRAME: usize = 16 << 10;
/// A spare set-up after every this many queries (11 samples in 30 queries).
const SETUP_EVERY: usize = 3;
const IO_DEADLINE: Duration = Duration::from_secs(120);

struct Size {
    queries: usize,
    query_every: usize,
}

impl Size {
    /// The set-up frame, then `queries` periods of `query_every` frames.
    fn frames(&self) -> usize {
        1 + self.queries * self.query_every
    }
}

fn size(ctx: &Ctx) -> Size {
    if ctx.tiny {
        return Size {
            queries: 6,
            query_every: 4,
        };
    }
    // 60 frames (1M updates) and 1.5 queries per second of run time: at
    // 20 s every item id is opened about 24 times, so every id is seen.
    Size {
        queries: 3 * ctx.seconds as usize / 2,
        query_every: 40,
    }
}

/// The spec every worker, the aggregator and the reference sketch share:
/// one constructor call (`knw_cluster::build_l0`) per topology.
pub fn spec() -> SketchSpec {
    SketchSpec::l0("knw-l0", EPSILON, UNIVERSE, SKETCH_SEED)
}

/// Item ids: a fixed set, scattered over the universe by a fixed bijection.
const IDS: u64 = 1 << 16;

fn item_of(id: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B1) & (UNIVERSE - 1)
}

/// Whether a burst of this id closes with a deletion (a fixed 60% of ids).
fn deleted(id: u64) -> bool {
    mix64(id ^ 0xDE1E7E) % 10 < 6
}

/// Transactional burst churn: ~512 bursts open at once, each gets ~12
/// signed updates, and 60% end in a deletion of the item.  Which ids end
/// deleted is fixed, and every id is opened many times over a run, so the
/// final support (and `rel_err`) does not depend on the seed; the seed
/// drives the order, the bursts and the deltas.
pub struct Churn {
    rng: Rng,
    open: Vec<(u64, u32)>,
    value: Vec<i64>,
}

impl Churn {
    const OPEN: usize = 512;
    const TOUCHES: u32 = 12;

    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x10);
        let open = (0..Self::OPEN).map(|_| (rng.below(IDS), 0)).collect();
        Churn {
            rng,
            open,
            value: vec![0; IDS as usize],
        }
    }

    fn push(&mut self, out: &mut Vec<(u64, i64)>, id: u64, delta: i64) {
        out.push((item_of(id), delta));
        self.value[id as usize] += delta;
    }

    /// Closes a burst: deleted ids go to zero, the others stay nonzero.
    fn close(&mut self, out: &mut Vec<(u64, i64)>, id: u64) {
        let value = self.value[id as usize];
        if deleted(id) && value != 0 {
            self.push(out, id, -value);
        } else if !deleted(id) && value == 0 {
            self.push(out, id, 1);
        }
    }

    pub fn fill(&mut self, out: &mut Vec<(u64, i64)>, len: usize) {
        out.clear();
        while out.len() < len {
            let slot = self.rng.below(Self::OPEN as u64) as usize;
            let (id, touches) = self.open[slot];
            if touches >= Self::TOUCHES {
                self.close(out, id);
                self.open[slot] = (self.rng.below(IDS), 0);
            } else {
                let delta = match self.rng.below(9) as i64 - 4 {
                    0 => 1,
                    d => d,
                };
                self.push(out, id, delta);
                self.open[slot].1 += 1;
            }
        }
    }

    /// The stream's last frame: closes every open burst.
    pub fn settle(&mut self, out: &mut Vec<(u64, i64)>) {
        out.clear();
        for slot in 0..Self::OPEN {
            let id = self.open[slot].0;
            self.close(out, id);
        }
    }
}

/// The first `len` updates of the stream (the input of the stage replays).
pub fn sample(ctx: &Ctx, len: usize) -> Vec<(u64, i64)> {
    let mut updates = Vec::new();
    Churn::new(ctx.seed).fill(&mut updates, len);
    updates
}

/// Two listening workers and the serving aggregator, killed and reaped on
/// drop unless they already exited.
pub struct Fleet {
    children: Vec<(Child, BufReader<ChildStdout>)>,
    pub serve: String,
}

fn read_banner(out: &mut BufReader<ChildStdout>, prefix: &str) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if out.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err(format!("process exited before printing `{prefix}`"));
        }
        if let Some(rest) = line.trim().strip_prefix(prefix) {
            return Ok(rest.split_whitespace().next().unwrap_or("").to_string());
        }
    }
}

impl Fleet {
    pub fn spawn(ctx: &Ctx) -> Result<Fleet, String> {
        let log = File::options()
            .create(true)
            .append(true)
            .open(ctx.out_dir.join("fleet.log"))
            .map_err(|e| e.to_string())?;
        let mut fleet = Fleet {
            children: Vec::new(),
            serve: String::new(),
        };
        let start =
            |name: &str, args: &[&str]| -> Result<(Child, BufReader<ChildStdout>), String> {
                let mut child = Command::new(ctx.bin_dir.join(name))
                    .args(args)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(log.try_clone().map_err(|e| e.to_string())?)
                    .spawn()
                    .map_err(|e| format!("spawn {name}: {e}"))?;
                let out = BufReader::new(child.stdout.take().expect("piped stdout"));
                Ok((child, out))
            };
        let mut connect = Vec::new();
        for _ in 0..2 {
            fleet
                .children
                .push(start("knw-worker", &["--listen", "127.0.0.1:0", "--once"])?);
            let out = &mut fleet.children.last_mut().expect("just pushed").1;
            connect.push(read_banner(out, "listening on ")?);
        }
        let s = spec();
        let (epsilon, universe, seed) = (
            s.epsilon.to_string(),
            s.universe.to_string(),
            s.seed.to_string(),
        );
        #[rustfmt::skip]
        let args = [
            "--transport", "tcp", "--connect", &connect[0], "--connect", &connect[1],
            "--mode", "l0", "--estimator", &s.estimator, "--epsilon", &epsilon,
            "--universe", &universe, "--seed", &seed, "--precoalesce", "--recover",
            "--serve", "127.0.0.1:0", "--sessions", "1",
        ];
        fleet.children.push(start("knw-aggregate", &args)?);
        let out = &mut fleet.children.last_mut().expect("just pushed").1;
        fleet.serve = read_banner(out, "serving on ")?;
        Ok(fleet)
    }

    pub fn pids(&self) -> impl Iterator<Item = String> + '_ {
        self.children
            .iter()
            .map(|(child, _)| child.id().to_string())
    }

    /// Summed peak RSS of the fleet processes, MiB.
    pub fn rss_mib(&self) -> f64 {
        self.pids().map(|pid| vm_hwm_mib(&pid)).sum()
    }

    /// Waits for every process to exit on its own and returns the
    /// aggregator's remaining stdout.
    pub fn wait(mut self) -> Result<String, String> {
        let deadline = Instant::now() + IO_DEADLINE;
        let mut rest = String::new();
        for (child, out) in &mut self.children {
            out.read_to_string(&mut rest).map_err(|e| e.to_string())?;
            loop {
                match child.try_wait().map_err(|e| e.to_string())? {
                    Some(status) if status.success() => break,
                    Some(status) => return Err(format!("fleet process exited with {status}")),
                    None if Instant::now() > deadline => {
                        return Err("fleet process did not exit".into())
                    }
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        }
        Ok(rest)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for (child, _) in &mut self.children {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// One client session speaking the frame protocol.
pub struct Session {
    stream: TcpStream,
    read_buf: Vec<u8>,
}

impl Session {
    pub fn open(fleet: &Fleet) -> Result<Session, String> {
        let stream = TcpStream::connect(&fleet.serve).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_DEADLINE))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_DEADLINE))
            .map_err(|e| e.to_string())?;
        let mut session = Session {
            stream,
            read_buf: Vec::new(),
        };
        let hello = encode_frame(&Frame::Hello(HelloConfig {
            worker_index: 0,
            spec: spec(),
        }))
        .map_err(|e| e.to_string())?;
        session.send(&hello)?;
        Ok(session)
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(|e| e.to_string())
    }

    /// Reads one whole frame's wire bytes (length prefix included).
    fn read_frame_bytes(&mut self) -> Result<(), String> {
        let mut prefix = [0u8; 4];
        self.stream
            .read_exact(&mut prefix)
            .map_err(|e| e.to_string())?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > knw_cluster::MAX_FRAME_LEN {
            return Err(format!("reply frame of {len} bytes"));
        }
        self.read_buf.clear();
        self.read_buf.extend_from_slice(&prefix);
        self.read_buf.resize(4 + len, 0);
        self.stream
            .read_exact(&mut self.read_buf[4..])
            .map_err(|e| e.to_string())
    }

    /// Decodes the frame last read.
    fn decode(&self) -> Result<Frame, String> {
        let mut decoder = FrameDecoder::new();
        decoder.push(&self.read_buf);
        match decoder.next_frame().map_err(|e| e.to_string())? {
            Some(frame) => Ok(frame),
            None => Err("truncated reply frame".into()),
        }
    }

    /// Reads and decodes one reply frame.
    fn reply(&mut self) -> Result<Frame, String> {
        self.read_frame_bytes()?;
        self.decode()
    }

    /// Sends `request` (`Snapshot` or `Finish`) and turns the `Shard` reply
    /// into an estimate: `(estimate, reply bytes, shard bytes)`.
    pub fn query(
        &mut self,
        request: &[u8],
        qid: u64,
        tr: &mut Tracer,
    ) -> Result<(f64, usize, usize), String> {
        tr.span("knw-cluster.session", "snapshot_rtt", qid, |_| {
            self.send(request)?;
            self.read_frame_bytes()
        })?;
        let shard = match tr.span("knw-cluster.frame", "decode_reply", qid, |_| self.decode())? {
            Frame::Shard(bytes) => bytes,
            Frame::Err(message) => return Err(format!("server error: {message}")),
            other => return Err(format!("unexpected reply {other:?}")),
        };
        let sketch = tr.span("knw-cluster", "shard_deserialize", qid, |_| {
            l0_shard_from_bytes(&spec(), &shard)
        })?;
        let estimate = tr.span("knw-core", "estimate", qid, |_| sketch.estimate());
        Ok((estimate, self.read_buf.len(), shard.len()))
    }
}

fn encode_batch(batch: &mut Vec<(u64, i64)>) -> Result<Vec<u8>, String> {
    let frame = Frame::Batch(BatchPayload::Updates(std::mem::take(batch)));
    let bytes = encode_frame(&frame).map_err(|e| e.to_string())?;
    if let Frame::Batch(BatchPayload::Updates(updates)) = frame {
        *batch = updates;
    }
    Ok(bytes)
}

/// Brings a fleet up, opens the session, sends the first batch and a
/// `Snapshot`; set-up ends when the reply (a merged `Shard` that holds the
/// first batch) has been read.
fn bring_up(ctx: &Ctx, first: &[u8], snapshot: &[u8]) -> Result<(Fleet, Session), String> {
    let fleet = Fleet::spawn(ctx)?;
    let mut session = Session::open(&fleet)?;
    session.send(first)?;
    session.send(snapshot)?;
    match session.reply()? {
        Frame::Shard(_) => Ok((fleet, session)),
        other => Err(format!("set-up snapshot answered with {other:?}")),
    }
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, verify: bool) -> Result<Outcome, String> {
    let size = size(ctx);
    let mut churn = Churn::new(ctx.seed);
    let mut batch = Vec::with_capacity(FRAME);
    churn.fill(&mut batch, FRAME);
    let first = encode_batch(&mut batch)?;

    let snapshot = encode_frame(&Frame::Snapshot).map_err(|e| e.to_string())?;
    let finish = encode_frame(&Frame::Finish).map_err(|e| e.to_string())?;
    let mut clock = RunClock::new(SETUP_EVERY);
    let (fleet, mut session) = clock.setup(|| bring_up(ctx, &first, &snapshot))?;

    // The CPU time of the client, the aggregator and the workers.
    let mut pids = vec!["self".to_string()];
    pids.extend(fleet.pids());
    clock.start(pids);
    let mut query_ms = Vec::new();
    let mut reply_bytes = Vec::new();
    let mut frame_bytes = 0;
    for index in 1..size.frames() {
        let id = index as u64;
        tr.span("bench", "generate", id, |_| churn.fill(&mut batch, FRAME));
        let bytes = tr.span("knw-cluster.frame", "encode", id, |_| {
            encode_batch(&mut batch)
        })?;
        tr.span("knw-cluster.session", "batch_write", id, |_| {
            session.send(&bytes)
        })?;
        frame_bytes += bytes.len();
        if index % size.query_every == 0 {
            let qid = query_ms.len() as u64;
            let t = Instant::now();
            let (_, reply, _) = tr.span("bench", "query", qid, |tr| {
                session.query(&snapshot, qid, tr)
            })?;
            query_ms.push(ms(t.elapsed()));
            reply_bytes.push(reply as f64);
            clock.spare(
                qid as usize,
                || bring_up(ctx, &first, &snapshot),
                |spare| {
                    drop(spare);
                    Ok(())
                },
            )?;
        }
    }
    churn.settle(&mut batch);
    let settled = batch.len();
    let bytes = encode_batch(&mut batch)?;
    session.send(&bytes)?;
    let rss_peak_mb = vm_hwm_mib("self") + fleet.rss_mib();
    // The final answer is one more query.
    let t = Instant::now();
    let (answer, _, shard_len) = tr.span("bench", "final", u64::MAX, |tr| {
        session.query(&finish, u64::MAX, tr)
    })?;
    query_ms.push(ms(t.elapsed()));
    clock.end((size.frames() - 1) * FRAME + settled);
    drop(session);
    let printed = fleet.wait()?;

    // The frames after the set-up one, whose updates the spans cover.
    let spanned = ((size.frames() - 1) * FRAME) as f64;
    // Every frame (the settling one too) and every answer (the final too).
    let attempted = (size.frames() + 1 + query_ms.len()) as u64;
    let mut out = Outcome::new(&clock, query_ms, answer);
    out.state_bytes = shard_len as f64;
    out.rss_peak_mb = rss_peak_mb;
    out.attempted = attempted;
    let served = printed
        .lines()
        .find_map(|l| l.strip_prefix("merged estimate"))
        .and_then(|rest| {
            rest.trim_start_matches([' ', ':'])
                .trim()
                .parse::<f64>()
                .ok()
        });
    out.check(
        served.map(f64::to_bits) == Some(answer.to_bits()),
        format!("aggregator's merged estimate {served:?} != Finish reply {answer}"),
    );
    let writes = tr.durations("knw-cluster.session", "batch_write");
    if !writes.is_empty() {
        out.layer(
            "knw-cluster.session.batch_write_ms",
            mean(&writes) / 1e6,
            "ms",
        );
        out.layer_median_ms(
            "knw-cluster.session.snapshot_rtt_ms",
            &tr.durations("knw-cluster.session", "snapshot_rtt"),
        );
        out.layer(
            "knw-cluster.session.reply_bytes",
            mean(&reply_bytes),
            "bytes",
        );
        out.layer(
            "knw-cluster.frame_encode_ns_per_upd",
            tr.total_ns("knw-cluster.frame", "encode") / spanned,
            "ns",
        );
        out.layer(
            "knw-cluster.frame_bytes_per_upd",
            frame_bytes as f64 / spanned,
            "bytes",
        );
        out.layer_median_ms(
            "knw-cluster.shard_deserialize_ms",
            &tr.durations("knw-cluster", "shard_deserialize"),
        );
        out.layer("knw-cluster.shard_bytes", shard_len as f64, "bytes");
    }
    if verify {
        gate(ctx, &size, answer, &mut out)?;
    }
    Ok(out)
}

/// Reference: one in-process sketch (`build_l0` on the same spec) fed the
/// same stream must give the Finish reply's estimate bit for bit; the
/// exact support size comes from a frequency map.
fn gate(ctx: &Ctx, size: &Size, answer: f64, out: &mut Outcome) -> Result<(), String> {
    let mut reference = knw_cluster::build_l0(&spec()).map_err(|e| e.to_string())?;
    let mut freq: HashMap<u64, i64> = HashMap::new();
    let mut churn = Churn::new(ctx.seed);
    let mut batch = Vec::with_capacity(FRAME);
    for index in 0..=size.frames() {
        if index < size.frames() {
            churn.fill(&mut batch, FRAME);
        } else {
            churn.settle(&mut batch);
        }
        if ctx.perturb && index % 2 == 1 {
            continue;
        }
        reference.update_batch(&batch);
        for &(item, delta) in &batch {
            *freq.entry(item).or_insert(0) += delta;
        }
    }
    let exact = freq.values().filter(|&&v| v != 0).count() as f64;
    out.rel_err = (answer - exact).abs() / exact;
    out.check(
        reference.estimate().to_bits() == answer.to_bits(),
        format!(
            "served estimate {answer} != single-sketch reference {}",
            reference.estimate()
        ),
    );
    out.record("exact_l0", exact.to_string());
    Ok(())
}
