//! Node sampling for graph measurement (§3 of the paper).
//!
//! Two families of samplers produce a (multiset) probability sample of
//! nodes, all with replacement:
//!
//! - **Independence sampling** (§3.1.1): [`UniformIndependence`] (UIS) and
//!   [`WeightedIndependence`] (WIS, via a Walker [`AliasTable`]).
//! - **Crawling** (§3.1.2): [`RandomWalk`] (RW), [`MetropolisHastingsWalk`]
//!   (MHRW), [`WeightedRandomWalk`] (WRW with product-form edge weights),
//!   and [`Swrw`] (Stratified Weighted Random Walk, the paper's \[35\]).
//!
//! Each sampler knows its stationary sampling weight `w(v) ∝ π(v)`
//! ([`NodeSampler::weight_of`]), which the estimators in `cgte-core` use for
//! Hansen–Hurwitz bias correction (§5).
//!
//! Independently of the sampler, a measurement records one of two
//! **observation scenarios** (§3.2): the induced subgraph (categories of
//! sampled nodes plus edges among them) or the star (additionally the
//! categories of *all* neighbors of each sampled node). An
//! [`ObservationStream`] folds each sampled node into the sufficient
//! statistics of both at once; the batch records [`InducedSample`] and
//! [`StarSample`] remain for the bootstrap and as test oracles.
//!
//! ```
//! use cgte_graph::generators::{planted_partition, PlantedConfig};
//! use cgte_sampling::{DesignKind, ObservationContext, ObservationStream, RandomWalk, WalkStats};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let pg = planted_partition(&PlantedConfig::scaled(500, 4, 0.5), &mut rng).unwrap();
//! let rw = RandomWalk::new().burn_in(100);
//! let ctx = ObservationContext::new(&pg.graph, &pg.partition);
//! let mut stream = ObservationStream::new(pg.partition.num_categories());
//! let mut stats = WalkStats::default();
//! stream
//!     .ingest_walk(&ctx, &rw, DesignKind::Weighted, 200, &mut rng, &mut stats)
//!     .unwrap();
//! assert_eq!(stream.len(), 200);
//! // Under the weighted design each node carries its walk weight, deg(v).
//! let (nodes, weights) = stream.log();
//! assert_eq!(weights[0], pg.graph.degree(nodes[0]) as f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod bfs;
pub mod convergence;
mod independence;
mod mhrw;
mod multiwalk;
mod observe;
mod random_walk;
pub mod snapshot;
pub mod stream;
mod swrw;
mod traits;
mod weighted_walk;

pub use alias::AliasTable;
pub use bfs::BreadthFirst;
pub use independence::{UniformIndependence, WeightedIndependence};
pub use mhrw::MetropolisHastingsWalk;
pub use multiwalk::{run_walks, MultiWalkSample};
pub use observe::{
    InducedAccumulator, InducedSample, NeighborCategoryIndex, ObservationContext, StarAccumulator,
    StarSample,
};
pub use random_walk::RandomWalk;
pub use stream::ObservationStream;
pub use swrw::Swrw;
pub use traits::{AnySampler, DesignKind, NodeSampler, SampleError, WalkStats};
pub use weighted_walk::WeightedRandomWalk;
