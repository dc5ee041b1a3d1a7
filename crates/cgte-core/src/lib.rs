//! Design-based estimators of coarse-grained topology — the paper's
//! contribution (§4 and §5).
//!
//! Given a probability sample of nodes observed under the induced-subgraph
//! or star scenario ([`cgte_sampling::InducedSample`] /
//! [`cgte_sampling::StarSample`]), this crate estimates:
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
//! - the **whole category graph** in one call —
//!   [`CategoryGraphEstimator`];
//! - the **population size** `N` when unknown (§4.3) — [`population`],
//!   collision-based ("reversed coupon collector", the paper's \[33\]);
//! - **bootstrap** variance and confidence intervals (§5.3.2) —
//!   [`bootstrap`].
//!
//! All estimators are *design-based*: they consume only the observation
//! structures, never the graph, and correct for known sampling weights via
//! the Hansen–Hurwitz construction (Eq. (10), [`hansen_hurwitz`]). Every
//! estimator is consistent (paper appendix); the integration tests verify
//! the empirical convergence rate.
//!
//! Uniform designs are the `w(v) ≡ 1` special case of the weighted
//! formulas; [`Design::Uniform`] forces unit weights so that, e.g., an MHRW
//! sample is treated as uniform regardless of what weights were recorded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod category_size;
pub mod edge_weight;
pub mod hansen_hurwitz;
pub mod population;
pub mod stream;

mod category_graph_est;

pub use category_graph_est::{CategoryGraphEstimator, Design, SizeMethod};
pub use category_size::StarSizeOptions;
pub use stream::{estimate_stream, estimate_stream_into, StreamEstimate};
