//! Graph substrate for coarse-grained topology estimation.
//!
//! This crate provides everything the estimators in `cgte-core` need from a
//! graph, without any knowledge of sampling or estimation itself:
//!
//! - [`Graph`]: an undirected, static graph in compressed sparse row (CSR)
//!   form with sorted adjacency lists (`O(log deg)` edge queries).
//! - [`GraphBuilder`]: incremental construction from edges, with self-loop
//!   and duplicate-edge rejection.
//! - [`Partition`]: an assignment of every node to exactly one category.
//! - [`CategoryGraph`]: the exact coarse-grained topology of a graph under a
//!   partition — category sizes, volumes, inter-category edge counts and the
//!   normalized edge weights `w(A,B) = |E_AB| / (|A|·|B|)` of Eq. (3) in the
//!   paper.
//! - [`generators`]: random graph models, including the planted-partition
//!   model of §6.2.1 used throughout the paper's simulations.
//! - [`algorithms`]: connectivity, degree statistics, and the
//!   leading-eigenvector community detection the paper uses to build
//!   worst-case category partitions (§6.3.1).
//!
//! The design follows the paper's notation closely; citations such as
//! "Eq. (3)" refer to equation numbers in Kurant et al.,
//! *Coarse-Grained Topology Estimation via Graph Sampling*.
//!
//! # Example
//!
//! ```
//! use cgte_graph::{GraphBuilder, Partition, CategoryGraph};
//!
//! // Build the toy graph of the paper's Fig. 1 style: two triangles joined.
//! let mut b = GraphBuilder::new(6);
//! for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
//!     b.add_edge(u, v).unwrap();
//! }
//! let g = b.build();
//! let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
//! let cg = CategoryGraph::exact(&g, &p);
//! assert_eq!(cg.edge_count_between(0, 1), 1);        // one cut edge
//! assert!((cg.weight(0, 1) - 1.0 / 9.0).abs() < 1e-12); // w = 1/(3*3)
//! ```

// `deny` rather than `forbid`: the mmap module below is the single,
// explicitly-allowed exception (raw mmap/munmap for zero-copy loads);
// everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod category_graph;
mod category_matrix;
mod error;
mod graph;
#[cfg(cgte_mmap)]
#[allow(unsafe_code)]
mod mmap;
mod partition;

pub mod algorithms;
pub mod generators;
pub mod parallel;
pub mod store;

pub use builder::GraphBuilder;
pub use category_graph::{CategoryEdge, CategoryGraph};
pub use category_matrix::CategoryMatrix;
pub use error::GraphError;
pub use graph::{Graph, NodeId};
pub use partition::{CategoryId, Partition};
