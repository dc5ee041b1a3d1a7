//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed from the benchmark's own code around calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Spans live in memory until the run ends and are written
//! out once as JSON lines. A span's self time is its duration minus the
//! durations of its children (children never overlap: every tracer is
//! owned by one thread).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotal {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean total duration per span, in microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// Every per-layer metric of the traced run. A workload reports 0 for a
/// layer that is not on its path (its time there is zero).
#[derive(Debug, Default)]
pub struct Layers {
    pub store_load_ms: f64,
    pub index_build_ms: f64,
    pub cache_build_ms: f64,
    pub cache_builds: f64,
    pub walk_ns_per_sample: f64,
    pub star_ns_per_sample: f64,
    pub induced_ns_per_sample: f64,
    pub estimate_us: f64,
    pub session_ingest_us: f64,
    pub session_estimate_json_us: f64,
    pub session_encode_us: f64,
    pub transport_rtt_us: f64,
    pub transport_share: f64,
    pub requests: f64,
    pub requests_failed: f64,
    pub snapshot_encode_ms: f64,
    pub snapshot_replay_ns_per_sample: f64,
    pub merge_ns_per_sample: f64,
    pub shard_rtt_us: f64,
    pub checkpoints: f64,
    pub checkpoint_bytes: f64,
    pub replayed_per_sample: f64,
    pub retries: f64,
    pub draw_ms: f64,
    pub push_ms: f64,
    pub snapshot_ms: f64,
    pub record_ms: f64,
    pub busy_share: f64,
    pub layer_share: f64,
    pub overhead_share: f64,
    pub traced_samples_per_s: f64,
}

impl Layers {
    /// Appends every per-layer metric, in `BENCHMARK.json` order.
    pub fn emit(&self, r: &mut crate::Report) {
        r.metric("graph.store.load_ms", self.store_load_ms, "ms");
        r.metric("serve.registry.index_build_ms", self.index_build_ms, "ms");
        r.metric("scenarios.cache.build_ms", self.cache_build_ms, "ms");
        r.metric("scenarios.cache.builds", self.cache_builds, "count");
        r.metric("sampling.walk.ns_per_sample", self.walk_ns_per_sample, "ns");
        r.metric(
            "sampling.observe.star_ns_per_sample",
            self.star_ns_per_sample,
            "ns",
        );
        r.metric(
            "sampling.observe.induced_ns_per_sample",
            self.induced_ns_per_sample,
            "ns",
        );
        r.metric("core.stream.estimate_us", self.estimate_us, "us");
        r.metric("serve.session.ingest_us", self.session_ingest_us, "us");
        r.metric(
            "serve.session.estimate_json_us",
            self.session_estimate_json_us,
            "us",
        );
        r.metric("serve.session.encode_us", self.session_encode_us, "us");
        r.metric("serve.transport.rtt_us", self.transport_rtt_us, "us");
        r.metric("serve.transport.share", self.transport_share, "share");
        r.metric("serve.requests", self.requests, "count");
        r.metric("serve.requests_failed", self.requests_failed, "count");
        r.metric("sampling.snapshot.encode_ms", self.snapshot_encode_ms, "ms");
        r.metric(
            "sampling.snapshot.replay_ns_per_sample",
            self.snapshot_replay_ns_per_sample,
            "ns",
        );
        r.metric(
            "sampling.stream.merge_ns_per_sample",
            self.merge_ns_per_sample,
            "ns",
        );
        r.metric("serve.cluster.shard_rtt_us", self.shard_rtt_us, "us");
        r.metric("serve.cluster.checkpoints", self.checkpoints, "count");
        r.metric(
            "serve.cluster.checkpoint_bytes",
            self.checkpoint_bytes,
            "bytes",
        );
        r.metric(
            "serve.cluster.replayed_per_sample",
            self.replayed_per_sample,
            "ratio",
        );
        r.metric("serve.cluster.retries", self.retries, "count");
        r.metric("eval.experiment.draw_ms", self.draw_ms, "ms");
        r.metric("eval.experiment.push_ms", self.push_ms, "ms");
        r.metric("eval.experiment.snapshot_ms", self.snapshot_ms, "ms");
        r.metric("eval.experiment.record_ms", self.record_ms, "ms");
        r.metric("scenarios.engine.busy_share", self.busy_share, "share");
        r.metric("trace.layer_share", self.layer_share, "share");
        r.metric("trace.overhead_share", self.overhead_share, "share");
        r.metric(
            "trace.samples_per_s",
            self.traced_samples_per_s,
            "samples/s",
        );
    }
}

/// Nanoseconds per sample (0 when no samples).
pub fn per_sample(total: LayerTotal, samples: u64) -> f64 {
    if samples == 0 {
        0.0
    } else {
        total.total_ns as f64 / samples as f64
    }
}

/// One thread's spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Moves another tracer's spans into this one (ids are remapped).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Per-name totals, with self time = duration minus child durations.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// `{"name": self_ms, …}` for every span name: where the traced time
    /// went once each span's children are taken out.
    pub fn self_ms_json(&self) -> String {
        let members: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, t)| format!("\"{name}\": {}", crate::num(t.self_ns as f64 / 1e6)))
            .collect();
        format!("{{{}}}", members.join(", "))
    }

    /// Totals of one span name (zero when it never ran).
    pub fn total(&self, name: &str) -> LayerTotal {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Writes every span as one JSON object per line. The `root` field is
    /// the id of the span's outermost ancestor, which every span of one
    /// request shares.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut root = id;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"root\":{root},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
