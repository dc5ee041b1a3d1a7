//! Random graph generators.
//!
//! All generators are deterministic given an RNG; pass a seeded
//! [`rand::rngs::StdRng`] for reproducible experiments.
//!
//! - [`planted_partition`]: the paper's synthetic model (§6.2.1) — per-category
//!   k-regular random graphs plus random inter-category edges, with the
//!   community-tightness knob α.
//! - [`k_regular`]: k-regular random graphs via stub pairing + rewiring.
//! - [`configuration_model_erased`] and [`configuration_model_rewired`]:
//!   configuration model for arbitrary degree sequences, plus power-law
//!   degree sequence sampling ([`powerlaw_degree_sequence`]).
//! - [`gnm`] and [`gnp`]: Erdős–Rényi G(n, m) and G(n, p).
//! - [`chung_lu`]: expected-degree (Chung–Lu) model, used for the empirical
//!   dataset stand-ins.
//! - [`barabasi_albert`]: preferential attachment.
//! - `par_`-prefixed variants (`par_chung_lu`, `par_gnp`,
//!   `par_barabasi_albert`, `par_configuration_model_erased`,
//!   `par_planted_partition`): chunked, thread-invariant parallel
//!   counterparts for million-node graphs (see [`crate::parallel`]).

mod barabasi_albert;
mod chung_lu;
mod configuration;
mod erdos_renyi;
mod kregular;
mod par;
mod planted;

pub use barabasi_albert::barabasi_albert;
pub use chung_lu::{chung_lu, powerlaw_weights, scale_to_mean};
pub use configuration::{
    configuration_model_erased, configuration_model_rewired, powerlaw_degree_sequence,
};
pub use erdos_renyi::{gnm, gnp};
pub use kregular::k_regular;
pub use par::{
    par_barabasi_albert, par_chung_lu, par_chung_lu_layers, par_configuration_model_erased,
    par_gnp, par_planted_partition, ChungLuLayer,
};
pub use planted::{planted_partition, PlantedConfig, PlantedGraph, PAPER_CATEGORY_SIZES};
