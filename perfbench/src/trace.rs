//! In-memory spans placed by the benchmark around its own calls into each
//! layer.  Nothing here reaches inside the program: a span covers one call
//! from the benchmark into a public function (or a replay of one stage).

use crate::util::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer groups self time is reported for (a span's layer is one of
/// these, optionally followed by `.<module>`).
pub const LAYERS: [&str; 5] = [
    "bench",
    "knw-engine",
    "knw-core",
    "knw-cluster",
    "knw-store",
];

pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// The batch or query this span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span (child of the innermost open span).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Durations (ns) of every span with this layer and name.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    pub fn total_ns(&self, layer: &str, name: &str) -> f64 {
        self.durations(layer, name).iter().sum()
    }

    /// Self time (span minus the time its children cover) summed per layer
    /// group, in ms.  Children of one span never overlap (the benchmark is
    /// single-threaded where it places spans), so their durations add up.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let group = LAYERS
                .iter()
                .find(|&&l| span.layer == l || span.layer.starts_with(&format!("{l}.")))
                .copied()
                .unwrap_or("bench");
            *out.get_mut(group).expect("every group present") +=
                span.dur_ns().saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\": {index}, \"layer\": {}, \"name\": {}, \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(s.layer),
                json_str(s.name),
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
