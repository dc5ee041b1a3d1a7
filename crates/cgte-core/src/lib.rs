//! Design-based estimators of coarse-grained topology — the paper's
//! contribution (§4 and §5).
//!
//! Given a probability sample of nodes folded into a
//! [`cgte_sampling::ObservationStream`] (which records both the
//! induced-subgraph and the star scenario), this crate estimates:
//!
//! - **category sizes** `|A|` — [`category_size`]:
//!   - induced: Eq. (4) uniform / Eq. (11) weighted,
//!   - star: Eq. (5) uniform / Eq. (12) weighted, built from the component
//!     estimators Eq. (6)(7) / Eq. (13)(14), with the optional model-based
//!     `k̂_A = k̂_V` variant of footnote 4;
//! - **category edge weights** `w(A,B) = |E_AB|/(|A|·|B|)` —
//!   [`edge_weight`]:
//!   - induced: Eq. (8) / Eq. (15),
//!   - star: Eq. (9) / Eq. (16) with pluggable size estimates;
//! - every estimator family at one prefix — [`estimate_stream_into`];
//! - the **whole category graph** in one call —
//!   [`estimate_category_graph`];
//! - the **population size** `N` when unknown (§4.3) — [`population`],
//!   collision-based ("reversed coupon collector", the paper's \[33\]);
//! - **bootstrap** variance and confidence intervals (§5.3.2) —
//!   [`bootstrap`], which resamples the batch records
//!   [`cgte_sampling::StarSample`] / [`cgte_sampling::InducedSample`].
//!
//! All estimators are *design-based*: they consume only the observation
//! structures, never the graph, and correct for known sampling weights via
//! the Hansen–Hurwitz construction (Eq. (10), [`hansen_hurwitz`]). Every
//! estimator is consistent (paper appendix); the integration tests verify
//! the empirical convergence rate. The from-scratch functions over batch
//! records (`induced_sizes`, `star_sizes`, `star_weights_all`, …) are the
//! oracles the streamed forms are tested against, bit for bit.
//!
//! Uniform designs are the `w(v) ≡ 1` special case of the weighted
//! formulas: a stream filled under [`cgte_sampling::DesignKind::Uniform`]
//! (or [`Design::Uniform`] in an experiment) pushes every draw with weight
//! 1, so that, e.g., an MHRW sample is treated as uniform regardless of the
//! sampler's weights.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod category_size;
pub mod edge_weight;
pub mod hansen_hurwitz;
pub mod population;
pub mod stream;

pub use category_size::StarSizeOptions;
pub use stream::{
    estimate_category_graph, estimate_stream, estimate_stream_into, Design, SizeMethod,
    StreamEstimate,
};
