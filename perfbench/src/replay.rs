//! The traced run's layer decomposition of a session's work.
//!
//! `Session::ingest_steps` walks (`try_sample_into_stats`) and then pushes
//! every drawn node into the star and induced accumulators;
//! `Session::estimate_json` snapshots them with `estimate_stream_into` and
//! encodes JSON. A [`Decomposed`] session makes the same calls on the same
//! inputs from the benchmark's side, one span per layer call, so each
//! layer's time is measured without instrumenting the program. Its state
//! stays equal to the real session's (checked by the callers).

use crate::trace::Tracer;
use cgte_core::{estimate_stream_into, StarSizeOptions, StreamEstimate};
use cgte_graph::NodeId;
use cgte_sampling::{
    AnySampler, DesignKind, InducedAccumulator, NodeSampler, ObservationContext, StarAccumulator,
    WalkStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub struct Decomposed {
    sampler: AnySampler,
    design: DesignKind,
    rng: StdRng,
    pub star: StarAccumulator,
    pub induced: InducedAccumulator,
    pub est: StreamEstimate,
    nodes: Vec<NodeId>,
    weights: Vec<f64>,
}

impl Decomposed {
    pub fn new(
        sampler: AnySampler,
        design: DesignKind,
        seed: u64,
        categories: usize,
    ) -> Decomposed {
        Decomposed {
            sampler,
            design,
            rng: StdRng::seed_from_u64(seed),
            star: StarAccumulator::new(categories),
            induced: InducedAccumulator::new(categories),
            est: StreamEstimate::new(categories),
            nodes: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// A server-side walk of `steps` samples, then both pushes; returns the
    /// number of samples ingested.
    pub fn ingest_steps(
        &mut self,
        ctx: &ObservationContext<'_>,
        t: &mut Tracer,
        parent: Option<usize>,
        steps: usize,
    ) -> Result<usize, String> {
        let mut nodes = std::mem::take(&mut self.nodes);
        let s = t.begin("sampling.walk", parent);
        let walked = self.sampler.try_sample_into_stats(
            ctx.graph(),
            steps,
            &mut self.rng,
            &mut nodes,
            &mut WalkStats::default(),
        );
        t.end(s);
        walked.map_err(|e| e.to_string())?;
        self.push_all(ctx, t, parent, &nodes);
        let n = nodes.len();
        self.nodes = nodes;
        Ok(n)
    }

    /// Pushes explicit node ids (a client-side crawl's draws).
    pub fn push_all(
        &mut self,
        ctx: &ObservationContext<'_>,
        t: &mut Tracer,
        parent: Option<usize>,
        nodes: &[NodeId],
    ) {
        let g = ctx.graph();
        self.weights.clear();
        self.weights
            .extend(nodes.iter().map(|&v| match self.design {
                DesignKind::Uniform => 1.0,
                DesignKind::Weighted => self.sampler.weight_of(g, v),
            }));
        let s = t.begin("sampling.observe.star", parent);
        for (&v, &w) in nodes.iter().zip(&self.weights) {
            self.star.push(ctx, v, w);
        }
        t.end(s);
        let s = t.begin("sampling.observe.induced", parent);
        for (&v, &w) in nodes.iter().zip(&self.weights) {
            self.induced.push(ctx, v, w);
        }
        t.end(s);
    }

    /// The estimate snapshot a session's `estimate_json` starts with.
    pub fn estimate(&mut self, t: &mut Tracer, parent: Option<usize>, population: f64) {
        let s = t.begin("core.stream.estimate", parent);
        estimate_stream_into(
            &self.star,
            &self.induced,
            population,
            &StarSizeOptions::default(),
            true,
            &mut self.est,
        );
        t.end(s);
    }
}
