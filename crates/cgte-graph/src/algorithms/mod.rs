//! Graph algorithms used by the evaluation pipeline.
//!
//! - [`connected_components`] and [`giant_component`]: connected
//!   components and giant component extraction. The paper requires
//!   connected graphs for its crawls.
//! - [`DegreeStats`]: degree summary statistics, used to verify that dataset
//!   stand-ins reproduce the published degree skew.
//! - [`leading_eigenvector_communities`]: Newman's leading-eigenvector
//!   modularity method (reference \[47\] of the paper), plus
//!   [`label_propagation`]; §6.3.1 builds its worst-case category
//!   partitions from the 50 largest communities.

mod clustering;
mod communities;
mod connectivity;
mod degree;

pub use clustering::{
    average_clustering, degree_assortativity, global_clustering, local_clustering, triangles_at,
};
pub use communities::{
    label_propagation, leading_eigenvector_communities, modularity, top_k_partition,
    CommunityOptions,
};
pub use connectivity::{connected_components, giant_component, Components};
pub use degree::DegreeStats;
