//! # cgte — Coarse-Grained Topology Estimation via Graph Sampling
//!
//! A Rust implementation of Kurant, Gjoka, Wang, Almquist, Butts &
//! Markopoulou, *Coarse-Grained Topology Estimation via Graph Sampling*.
//!
//! Many large online networks can only be measured through a probability
//! sample of nodes. This crate estimates the **category graph** — the
//! coarse-grained topology induced by a node partition (countries, colleges,
//! communities, …) — from such samples: category sizes `|A|` and
//! inter-category edge weights `w(A,B) = |E_AB| / (|A|·|B|)`.
//!
//! This facade crate re-exports the member crates of the workspace:
//!
//! | module | contents |
//! |--------|----------|
//! | [`graph`] | CSR graphs, partitions, exact category graphs, generators, communities, clustering |
//! | [`sampling`] | UIS/WIS/RW/MHRW/S-WRW samplers (+ BFS baseline), the observation stream (induced & star), convergence diagnostics |
//! | [`estimators`] | the paper's estimators (Eq. 4–16), population size, bootstrap |
//! | [`eval`] | NRMSE harness, experiment sweeps |
//! | [`datasets`] | edge-list IO, empirical stand-ins, Facebook-like simulator |
//! | [`viz`] | DOT/JSON/GraphML exporters and SVG plots for category graphs |
//! | [`scenarios`] | declarative `.scn` experiment scenarios, parallel job scheduler, shared graph cache |
//!
//! # Quickstart
//!
//! ```
//! use cgte::graph::generators::{planted_partition, PlantedConfig};
//! use cgte::sampling::{DesignKind, ObservationContext, ObservationStream, UniformIndependence, WalkStats};
//! use cgte::estimators::{estimate_category_graph, SizeMethod, StarSizeOptions};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! // A small planted-partition graph with known category structure.
//! let pg = planted_partition(&PlantedConfig::scaled(200, 5, 0.5), &mut rng).unwrap();
//!
//! // Sample 500 nodes uniformly and fold each one into the stream as it
//! // is drawn, recording its neighbors' categories (star design).
//! let ctx = ObservationContext::new(&pg.graph, &pg.partition);
//! let mut stream = ObservationStream::new(pg.partition.num_categories());
//! stream
//!     .ingest_walk(&ctx, &UniformIndependence, DesignKind::Uniform, 500, &mut rng,
//!                  &mut WalkStats::default())
//!     .unwrap();
//!
//! // Estimate the whole category graph.
//! let sizes = SizeMethod::Star(StarSizeOptions::default());
//! let est = estimate_category_graph(&stream, pg.graph.num_nodes() as f64, sizes);
//! assert_eq!(est.num_categories(), pg.partition.num_categories());
//! ```

pub use cgte_core as estimators;
pub use cgte_datasets as datasets;
pub use cgte_eval as eval;
pub use cgte_graph as graph;
pub use cgte_sampling as sampling;
pub use cgte_scenarios as scenarios;
pub use cgte_viz as viz;
