//! Sampling sessions: one streaming observation per client, fed either
//! explicit sampled node ids or server-side walk step budgets, queryable
//! for estimates at any prefix.

use crate::json::{fmt_f64, fmt_str, push_array, push_f64, push_list, push_opt_array};
use crate::registry::LoadedGraph;
use crate::ServeError;
use cgte_core::bootstrap::{bootstrap_induced, bootstrap_star};
use cgte_core::category_size::{induced_size, star_size};
use cgte_core::{estimate_stream_into, StarSizeOptions, StreamEstimate};
use cgte_graph::store::{Container, Section};
use cgte_graph::{CategoryMatrix, Graph, NodeId, Partition};
use cgte_sampling::{
    snapshot, AnySampler, DesignKind, InducedSample, MetropolisHastingsWalk, NeighborCategoryIndex,
    NodeSampler, ObservationContext, ObservationStream, RandomWalk, StarSample, Swrw,
    UniformIndependence, WalkStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// Caps a `?ci=…&reps=…` request: bootstrap is `O(reps · C · n)`.
pub const MAX_BOOTSTRAP_REPS: usize = 2000;
/// Default bootstrap replicate count.
pub const DEFAULT_BOOTSTRAP_REPS: usize = 200;
/// Caps the chain transitions one walk ingest may run:
/// `burn_in + steps · thinning`.
pub const MAX_WALK_BUDGET: usize = 10_000_000;

/// Rejects (422) a walk ingest of `steps` retained samples whose chain
/// cost `burn_in + steps · thinning` (saturating) exceeds
/// [`MAX_WALK_BUDGET`].
fn check_walk_budget(burn_in: usize, thinning: usize, steps: usize) -> Result<(), ServeError> {
    let cost = steps.saturating_mul(thinning).saturating_add(burn_in);
    if cost > MAX_WALK_BUDGET {
        return Err(ServeError::unprocessable(format!(
            "walk budget burn_in + steps*thinning = {burn_in} + {steps}*{thinning} exceeds {MAX_WALK_BUDGET}"
        )));
    }
    Ok(())
}

/// Rejects (422) a `?ci=` request whose bootstrap would resample a
/// `len`-sample session `reps` times: `reps · len` (saturating) may not
/// exceed [`MAX_WALK_BUDGET`], the same bound as one walk ingest.
pub(crate) fn check_ci_budget(reps: usize, len: usize) -> Result<(), ServeError> {
    if reps.saturating_mul(len) > MAX_WALK_BUDGET {
        return Err(ServeError::unprocessable(format!(
            "ci budget reps*len = {reps}*{len} exceeds {MAX_WALK_BUDGET}"
        )));
    }
    Ok(())
}

/// `.cgtes` section holding the registry name of the session's graph.
pub const SEC_GRAPH: &str = "session.graph";
/// `.cgtes` section holding the partition name (empty = default).
pub const SEC_PARTITION: &str = "session.partition";
/// `.cgtes` section holding the sampler key (`uis`, `rw`, `mhrw`, `swrw`).
pub const SEC_SAMPLER: &str = "session.sampler";
/// `.cgtes` section holding the design (`uniform`/`weighted`; empty =
/// sampler default).
pub const SEC_DESIGN: &str = "session.design";
/// `.cgtes` section holding `[seed, burn_in, thinning]` (u64 × 3).
pub const SEC_PARAMS: &str = "session.params";
/// `.cgtes` section holding the walk RNG's raw state (u64 × 4).
pub const SEC_RNG: &str = "rng.state";

/// Parameters of `POST /sessions`, parsed from its JSON body.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Registry name of the graph.
    pub graph: String,
    /// Partition name within the graph (default: the first one).
    pub partition: Option<String>,
    /// Sampler name: `uis`, `rw`, `mhrw`, `swrw`.
    pub sampler: String,
    /// `uniform` or `weighted`; defaults to the sampler's natural design.
    pub design: Option<String>,
    /// RNG seed for server-side walks (default 42).
    pub seed: u64,
    /// Walk burn-in per ingest batch.
    pub burn_in: usize,
    /// Walk thinning factor.
    pub thinning: usize,
}

/// Resolves a sampler key + design string into the concrete sampler and
/// design a session would run.
///
/// This is the **one** construction path: `Session::open` and the cluster
/// coordinator's single-box reference both reach [`build_sampler_with`],
/// so a shard session and a local replay of the same spec are
/// bit-identical by construction. This form builds its own S-WRW walk
/// table (`O(N + E)`); call it once per run, not once per walker.
pub fn build_sampler(
    graph: &Graph,
    p: &Partition,
    sampler: &str,
    design: Option<&str>,
    burn_in: usize,
    thinning: usize,
) -> Result<(AnySampler, DesignKind), ServeError> {
    build_sampler_with(
        || Swrw::equal_category_target(graph, p),
        sampler,
        design,
        burn_in,
        thinning,
    )
}

/// [`build_sampler`] with the base S-WRW (equal category targets, no
/// burn-in) supplied by `swrw`, which runs only for the `swrw` key — a
/// session passes its partition's shared [`LoadedGraph::swrw`] so that no
/// session open builds a walk table.
pub fn build_sampler_with(
    swrw: impl FnOnce() -> Option<Swrw>,
    sampler: &str,
    design: Option<&str>,
    burn_in: usize,
    thinning: usize,
) -> Result<(AnySampler, DesignKind), ServeError> {
    let thinning = thinning.max(1);
    let sampler = match sampler {
        "uis" => AnySampler::Uis(UniformIndependence),
        "rw" => AnySampler::Rw(RandomWalk::new().burn_in(burn_in).thinning(thinning)),
        "mhrw" => AnySampler::Mhrw(
            MetropolisHastingsWalk::new()
                .burn_in(burn_in)
                .thinning(thinning),
        ),
        "swrw" => {
            let s = swrw()
                .ok_or_else(|| {
                    ServeError::unprocessable("cannot build S-WRW for this graph/partition")
                })?
                .burn_in(burn_in)
                .thinning(thinning);
            AnySampler::Swrw(s)
        }
        other => {
            return Err(ServeError::unprocessable(format!(
                "unknown sampler {other:?} (use uis, rw, mhrw or swrw)"
            )))
        }
    };
    let design = match design {
        None => sampler.design(),
        Some("uniform") => DesignKind::Uniform,
        Some("weighted") => DesignKind::Weighted,
        Some(other) => {
            return Err(ServeError::unprocessable(format!(
                "unknown design {other:?} (use uniform or weighted)"
            )))
        }
    };
    Ok((sampler, design))
}

/// Appends a weight matrix's non-zero cells as sparse `[[a, b, w], …]`
/// triplets in ascending `(a, b)` order.
fn push_weights(out: &mut String, m: &CategoryMatrix) {
    push_list(out, m.iter_nonzero(), |out, (a, b, w)| {
        let _ = write!(out, "[{a},{b},");
        push_f64(out, w);
        out.push(']');
    });
}

/// One open estimation session.
pub struct Session {
    /// The session id (`s0`, `s1`, …).
    pub id: String,
    graph: Arc<LoadedGraph>,
    part_idx: usize,
    index: Arc<NeighborCategoryIndex>,
    sampler: AnySampler,
    design: DesignKind,
    seed: u64,
    rng: StdRng,
    stream: ObservationStream,
    /// The opening spec with every default resolved (partition and design
    /// filled in, thinning clamped) — what a `.cgtes` snapshot records so
    /// a restore reopens an equivalent session.
    spec: SessionSpec,
    /// Reusable snapshot buffer (`estimate_stream_into`).
    est: StreamEstimate,
}

impl Session {
    /// Opens a session against a loaded graph. `index_threads` bounds the
    /// one-time parallel index build if this is the partition's first use.
    /// A spec whose 1-step ingest would exceed [`MAX_WALK_BUDGET`] is
    /// rejected (422); this covers `POST /sessions` and every restore.
    pub fn open(
        id: String,
        graph: Arc<LoadedGraph>,
        spec: &SessionSpec,
        index_threads: usize,
    ) -> Result<Session, ServeError> {
        let part_idx = match &spec.partition {
            Some(name) => graph.partition_idx(name).ok_or_else(|| {
                ServeError::not_found(format!(
                    "graph {:?} has no partition {name:?} (available: {})",
                    graph.name,
                    graph
                        .partitions
                        .iter()
                        .map(|(n, _)| n.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?,
            None => {
                if graph.partitions.is_empty() {
                    return Err(ServeError::unprocessable(format!(
                        "graph {:?} has no partitions; ingest it with a category file",
                        graph.name
                    )));
                }
                0
            }
        };
        let p = &graph.partitions[part_idx].1;
        let thinning = spec.thinning.max(1);
        check_walk_budget(spec.burn_in, thinning, 1)?;
        let (sampler, design) = build_sampler_with(
            || graph.swrw(part_idx),
            &spec.sampler,
            spec.design.as_deref(),
            spec.burn_in,
            thinning,
        )?;
        let index = graph.index(part_idx, index_threads);
        let num_categories = p.num_categories();
        let resolved = SessionSpec {
            graph: graph.name.clone(),
            partition: Some(graph.partitions[part_idx].0.clone()),
            sampler: spec.sampler.clone(),
            design: Some(
                match design {
                    DesignKind::Uniform => "uniform",
                    DesignKind::Weighted => "weighted",
                }
                .to_string(),
            ),
            seed: spec.seed,
            burn_in: spec.burn_in,
            thinning,
        };
        Ok(Session {
            id,
            graph,
            part_idx,
            index,
            sampler,
            design,
            seed: spec.seed,
            rng: StdRng::seed_from_u64(spec.seed),
            stream: ObservationStream::new(num_categories),
            spec: resolved,
            est: StreamEstimate::new(num_categories),
        })
    }

    /// Number of ingested samples so far.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// Whether nothing was ingested yet.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// Heap bytes the session holds: its observation stream and its
    /// reusable estimate buffer. A walk ingest pushes each node as it is
    /// drawn, so the session keeps no node buffer. The neighbor-category
    /// index and the S-WRW walk table are shared by every session on the
    /// partition and belong to the graph, so they are not counted here.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.stream.heap_bytes() + self.est.heap_bytes()
    }

    /// The population size `N` estimates are scaled by.
    pub fn population(&self) -> f64 {
        self.graph.graph.num_nodes() as f64
    }

    /// Number of categories of the session's partition.
    pub fn num_categories(&self) -> usize {
        self.stream.num_categories()
    }

    /// The sampler's display name.
    pub fn sampler_name(&self) -> &'static str {
        self.sampler.name()
    }

    /// The design as a lowercase string.
    pub fn design_name(&self) -> &'static str {
        match self.design {
            DesignKind::Uniform => "uniform",
            DesignKind::Weighted => "weighted",
        }
    }

    /// Ingests explicit sampled node ids (a client-side crawl reporting
    /// its draws). Design weights are the session sampler's `w(v)` under a
    /// weighted design, 1 otherwise. Rejects out-of-range ids and nodes
    /// whose design weight is not positive and finite (e.g. an isolated
    /// node under a degree-weighted design) **before** touching the
    /// stream, so a failed batch leaves the session state unchanged.
    pub fn ingest_nodes(&mut self, nodes: &[NodeId]) -> Result<usize, ServeError> {
        let g = &self.graph.graph;
        let n = g.num_nodes() as u64;
        for &v in nodes {
            if (v as u64) >= n {
                return Err(ServeError::unprocessable(format!(
                    "node id {v} out of range (graph has {n} nodes)"
                )));
            }
            if self.design == DesignKind::Weighted {
                let w = self.sampler.weight_of(g, v);
                if !(w.is_finite() && w > 0.0) {
                    return Err(ServeError::unprocessable(format!(
                        "node {v} has non-positive sampling weight {w} under the weighted design"
                    )));
                }
            }
        }
        // Field-level borrows: the context views (graph, partition, index)
        // are disjoint from the mutable stream.
        let ctx = ObservationContext::with_index(
            &self.graph.graph,
            &self.graph.partitions[self.part_idx].1,
            &self.index,
        );
        self.stream
            .ingest_sampler(&ctx, nodes, &self.sampler, self.design);
        Ok(nodes.len())
    }

    /// Runs a server-side walk of `steps` retained samples and ingests
    /// them. Each batch is an independent walk segment from the session's
    /// persistent RNG stream (multi-walk semantics, like the paper's
    /// parallel crawl campaigns); a single-batch session is therefore
    /// bit-identical to the batch runner's draw for the same seed.
    ///
    /// Each node is pushed as the walk draws it
    /// ([`ObservationStream::ingest_walk`]), so no node buffer sits between
    /// the walk and the stream. Sampler-level failures (edgeless graph)
    /// come before the first node and a walk past [`MAX_WALK_BUDGET`] is
    /// refused up front; both surface as HTTP 422 with the session state
    /// unchanged.
    pub fn ingest_steps(&mut self, steps: usize) -> Result<usize, ServeError> {
        check_walk_budget(self.spec.burn_in, self.spec.thinning, steps)?;
        // Field-level borrows: the context views (graph, partition, index)
        // are disjoint from the mutable stream and RNG.
        let ctx = ObservationContext::with_index(
            &self.graph.graph,
            &self.graph.partitions[self.part_idx].1,
            &self.index,
        );
        let mut stats = WalkStats::default();
        self.stream
            .ingest_walk(
                &ctx,
                &self.sampler,
                self.design,
                steps,
                &mut self.rng,
                &mut stats,
            )
            .map_err(|e| ServeError::unprocessable(e.to_string()))?;
        crate::counters::WALK_STEPS_TOTAL
            .fetch_add(stats.steps as u64, std::sync::atomic::Ordering::Relaxed);
        crate::counters::WALK_REJECTIONS_TOTAL.fetch_add(
            stats.rejections as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        cgte_obs::event(
            cgte_obs::LEVEL_DETAIL,
            "serve.walk",
            &[
                ("session", cgte_obs::Value::Str(&self.id)),
                ("retained", cgte_obs::Value::U64(stats.retained as u64)),
                ("steps", cgte_obs::Value::U64(stats.steps as u64)),
                ("rejections", cgte_obs::Value::U64(stats.rejections as u64)),
                ("burn_in", cgte_obs::Value::U64(stats.burn_in as u64)),
                ("thinning", cgte_obs::Value::U64(stats.thinning as u64)),
            ],
        );
        Ok(stats.retained)
    }

    /// The estimate document at the current prefix: category sizes by both
    /// estimator families, all-pairs edge weights (sparse `[a, b, w]`
    /// triplets), and optionally bootstrap percentile CIs for the sizes.
    ///
    /// Values are the bit-exact output of `cgte_core::estimate_stream_into`
    /// — the same snapshot function the batch experiment runner records.
    pub fn estimate_json(&mut self, ci: Option<(f64, usize)>) -> String {
        estimate_stream_into(
            self.stream.star(),
            self.stream.induced(),
            self.population(),
            &StarSizeOptions::default(),
            true,
            &mut self.est,
        );
        let est = &self.est;
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"session\":{},\"len\":{},\"population\":",
            fmt_str(&self.id),
            est.len,
        );
        push_f64(&mut out, est.population);
        let _ = write!(
            out,
            ",\"num_categories\":{},\"sizes\":{{\"induced\":",
            self.num_categories()
        );
        if est.induced_defined {
            push_array(&mut out, &est.sizes_induced);
        } else {
            out.push_str("null");
        }
        out.push_str(",\"star\":");
        push_opt_array(&mut out, &est.sizes_star);
        out.push_str("},\"weights\":{\"induced\":");
        push_weights(&mut out, &est.weights_induced);
        out.push_str(",\"star\":");
        push_weights(&mut out, &est.weights_star);
        out.push('}');
        if let Some((level, reps)) = ci {
            out.push(',');
            out.push_str(&self.ci_json(level, reps));
        }
        out.push('}');
        out
    }

    /// The `"ci"` member: per-category bootstrap percentile intervals for
    /// both size estimators (§5.3.2 — resampled at the record level from
    /// the session's observation log, no graph access beyond
    /// re-observation). Deterministic for a given session seed and prefix
    /// length.
    fn ci_json(&self, level: f64, reps: usize) -> String {
        let g = &self.graph.graph;
        let p = &self.graph.partitions[self.part_idx].1;
        let population = self.population();
        let (nodes, logged) = self.stream.log();
        let weights: Vec<f64> = match self.design {
            DesignKind::Uniform => vec![1.0; nodes.len()],
            DesignKind::Weighted => logged.to_vec(),
        };
        let star_sample = StarSample::observe_with_weights(g, p, nodes, weights.clone());
        let ind_sample = InducedSample::observe_with_weights(g, p, nodes, weights);
        // One deterministic stream per (session seed, prefix, reps): the
        // same query twice returns byte-identical intervals.
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (nodes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ reps as u64,
        );
        let opts = StarSizeOptions::default();
        let mut star_ci = String::from("[");
        let mut ind_ci = String::from("[");
        for c in 0..self.num_categories() as u32 {
            if c > 0 {
                star_ci.push(',');
                ind_ci.push(',');
            }
            match bootstrap_star(&star_sample, reps, level, &mut rng, |s| {
                star_size(s, c, population, &opts)
            }) {
                Some(s) => {
                    let _ = write!(
                        star_ci,
                        "{{\"lo\":{},\"hi\":{},\"mean\":{},\"sd\":{},\"replicates\":{}}}",
                        fmt_f64(s.ci.0),
                        fmt_f64(s.ci.1),
                        fmt_f64(s.mean),
                        fmt_f64(s.std_dev),
                        s.replicates
                    );
                }
                None => star_ci.push_str("null"),
            }
            match bootstrap_induced(&ind_sample, reps, level, &mut rng, |s| {
                induced_size(s, c, population)
            }) {
                Some(s) => {
                    let _ = write!(
                        ind_ci,
                        "{{\"lo\":{},\"hi\":{},\"mean\":{},\"sd\":{},\"replicates\":{}}}",
                        fmt_f64(s.ci.0),
                        fmt_f64(s.ci.1),
                        fmt_f64(s.mean),
                        fmt_f64(s.std_dev),
                        s.replicates
                    );
                }
                None => ind_ci.push_str("null"),
            }
        }
        star_ci.push(']');
        ind_ci.push(']');
        format!(
            "\"ci\":{{\"level\":{},\"reps\":{reps},\"sizes_star\":{star_ci},\"sizes_induced\":{ind_ci}}}",
            fmt_f64(level)
        )
    }

    /// The `POST /sessions` response body. It carries the session's
    /// sample count, so a coordinator can check an open (0) or a restore
    /// (the snapshot's length) against what it expects.
    pub fn opened_json(&self) -> String {
        format!(
            "{{\"session\":{},\"graph\":{},\"partition\":{},\"sampler\":{},\"design\":{},\"num_categories\":{},\"population\":{},\"len\":{}}}",
            fmt_str(&self.id),
            fmt_str(&self.graph.name),
            fmt_str(&self.graph.partitions[self.part_idx].0),
            fmt_str(self.sampler_name()),
            fmt_str(self.design_name()),
            self.num_categories(),
            fmt_f64(self.population()),
            self.len(),
        )
    }

    /// Underlying design of the session (for tests).
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// The session's sampler (for tests).
    pub fn sampler(&self) -> &AnySampler {
        &self.sampler
    }

    /// The graph this session observes.
    pub fn graph_name(&self) -> &str {
        &self.graph.name
    }

    /// Encodes the session's full resumable state as `.cgtes` container
    /// sections: the resolved opening spec, the walk RNG's raw state, and
    /// the observation push log. Restoring replays the log and resumes
    /// the RNG mid-stream, so a restored session's future draws and
    /// estimates are bit-identical to one that never stopped.
    pub fn snapshot_container(&self) -> Container {
        let mut c = Container::new();
        c.push(Section::string("meta.kind", "cgte-session"));
        c.push(Section::string(SEC_GRAPH, &self.spec.graph));
        c.push(Section::string(
            SEC_PARTITION,
            self.spec.partition.as_deref().unwrap_or(""),
        ));
        c.push(Section::string(SEC_SAMPLER, &self.spec.sampler));
        c.push(Section::string(
            SEC_DESIGN,
            self.spec.design.as_deref().unwrap_or(""),
        ));
        c.push(Section::u64s(
            SEC_PARAMS,
            vec![
                self.spec.seed,
                self.spec.burn_in as u64,
                self.spec.thinning as u64,
            ],
        ));
        c.push(Section::u64s(SEC_RNG, self.rng.state().to_vec()));
        for s in snapshot::stream_sections(&self.stream) {
            c.push(s);
        }
        c
    }

    /// The session's `.cgtes` snapshot as bytes (magic + checksummed
    /// sections), ready to be written to disk or shipped over HTTP.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        snapshot::write_snapshot(&mut buf, &self.snapshot_container())
            .expect("in-memory snapshot write cannot fail");
        buf
    }

    /// The graph name a snapshot container was taken against (read before
    /// restoring, to load the right registry entry).
    pub fn snapshot_graph_name(c: &Container) -> Result<String, ServeError> {
        c.string(SEC_GRAPH)
            .map(str::to_string)
            .map_err(|e| ServeError::unprocessable(format!("invalid snapshot: {e}")))
    }

    /// Rehydrates a session from a `.cgtes` snapshot container under a
    /// fresh id: reopens the recorded spec against the (re)loaded graph,
    /// restores the RNG state, and replays the push log through the
    /// streaming kernel — bit-identical to the session that was
    /// snapshotted, including every future server-side walk draw.
    pub fn restore(
        id: String,
        graph: Arc<LoadedGraph>,
        c: &Container,
        index_threads: usize,
    ) -> Result<Session, ServeError> {
        let bad =
            |e: &dyn std::fmt::Display| ServeError::unprocessable(format!("invalid snapshot: {e}"));
        let get_str = |name: &str| -> Result<String, ServeError> {
            c.string(name).map(str::to_string).map_err(|e| bad(&e))
        };
        let graph_name = get_str(SEC_GRAPH)?;
        if graph_name != graph.name {
            return Err(ServeError::unprocessable(format!(
                "snapshot was taken against graph {graph_name:?}, not {:?}",
                graph.name
            )));
        }
        let partition = Some(get_str(SEC_PARTITION)?).filter(|s| !s.is_empty());
        let sampler = get_str(SEC_SAMPLER)?;
        let design = Some(get_str(SEC_DESIGN)?).filter(|s| !s.is_empty());
        let params = c.u64s(SEC_PARAMS).map_err(|e| bad(&e))?;
        let [seed, burn_in, thinning] = params else {
            return Err(ServeError::unprocessable(format!(
                "invalid snapshot: section {SEC_PARAMS:?} must hold [seed, burn_in, thinning], got {} entries",
                params.len()
            )));
        };
        let rng_state = c.u64s(SEC_RNG).map_err(|e| bad(&e))?;
        let rng_state: [u64; 4] = rng_state.try_into().map_err(|_| {
            ServeError::unprocessable(format!(
                "invalid snapshot: section {SEC_RNG:?} must hold 4 words"
            ))
        })?;
        let spec = SessionSpec {
            graph: graph_name,
            partition,
            sampler,
            design,
            seed: *seed,
            burn_in: *burn_in as usize,
            thinning: (*thinning as usize).max(1),
        };
        let mut session = Session::open(id, graph, &spec, index_threads)?;
        session.rng = StdRng::from_state(rng_state);
        let ctx = ObservationContext::with_index(
            &session.graph.graph,
            &session.graph.partitions[session.part_idx].1,
            &session.index,
        );
        session.stream = snapshot::stream_from_container(c, &ctx).map_err(|e| bad(&e))?;
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::GraphBuilder;

    fn open_rw(g: Graph, p: Partition, design: Option<&str>) -> Session {
        let lg = Arc::new(LoadedGraph::new(
            "g".to_string(),
            g,
            vec![("main".to_string(), p)],
        ));
        let spec = SessionSpec {
            graph: "g".to_string(),
            partition: None,
            sampler: "rw".to_string(),
            design: design.map(str::to_string),
            seed: 1,
            burn_in: 0,
            thinning: 1,
        };
        Session::open("s0".to_string(), lg, &spec, 1).unwrap()
    }

    /// A walk ingest pushes each node as it is drawn: the session holds
    /// its stream and its estimate buffer, and no node buffer besides.
    #[test]
    fn heap_bytes_are_the_stream_and_the_estimate() {
        let n = 1000;
        let g = GraphBuilder::from_edges(n, (0..n as NodeId).map(|u| (u, (u + 1) % n as NodeId)))
            .unwrap();
        let p = Partition::blocks(n, &[n / 2; 2]).unwrap();
        let mut s = open_rw(g, p, None);
        assert_eq!(s.ingest_steps(10_000).unwrap(), 10_000);
        s.estimate_json(None);
        // Two categories: two 2-entry f64 vectors, two 3-cell triangles
        // and one 2-entry Option<f64> vector.
        let est = (2 + 2 + 3 + 3) * 8 + 2 * std::mem::size_of::<Option<f64>>();
        assert!(s.est.heap_bytes() >= est, "{}", s.est.heap_bytes());
        assert_eq!(s.heap_bytes(), s.stream.heap_bytes() + s.est.heap_bytes());
    }

    /// An edgeless graph fails the walk before its first node: 422, and
    /// the session's length, heap and estimate bytes stay as they were.
    /// (Uniform design, so explicit ids of isolated nodes are accepted.)
    #[test]
    fn failed_walk_leaves_the_session_unchanged() {
        let p = Partition::blocks(6, &[3, 3]).unwrap();
        let mut s = open_rw(GraphBuilder::new(6).build(), p, Some("uniform"));
        s.ingest_nodes(&[0, 4, 4]).unwrap();
        let (len, heap, est) = (s.len(), s.heap_bytes(), s.estimate_json(None));
        let err = s.ingest_steps(500).unwrap_err();
        assert_eq!(err.status, 422);
        assert_eq!(s.len(), len);
        assert_eq!(s.heap_bytes(), heap);
        assert_eq!(s.estimate_json(None), est);
    }
}
