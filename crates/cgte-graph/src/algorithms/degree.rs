//! Degree statistics.

use crate::{Graph, NodeId};

/// Summary statistics of a graph's degree distribution.
///
/// §6.3.2 of the paper attributes estimator behaviour to degree skew; these
/// statistics let tests assert that stand-in graphs reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree `k_V`.
    pub mean: f64,
    /// Degree variance (population).
    pub variance: f64,
    /// Coefficient of variation `σ/μ` — the skew proxy used in tests.
    pub cv: f64,
}

impl DegreeStats {
    /// Computes statistics over all nodes of `g`.
    ///
    /// Returns all-zero statistics for the empty graph.
    pub fn of(g: &Graph) -> DegreeStats {
        let n = g.num_nodes();
        if n == 0 {
            return DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                variance: 0.0,
                cv: 0.0,
            };
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0.0f64;
        let mut sum2 = 0.0f64;
        for v in 0..n {
            let d = g.degree(v as NodeId);
            min = min.min(d);
            max = max.max(d);
            sum += d as f64;
            sum2 += (d * d) as f64;
        }
        let mean = sum / n as f64;
        let variance = (sum2 / n as f64 - mean * mean).max(0.0);
        let cv = if mean > 0.0 {
            variance.sqrt() / mean
        } else {
            0.0
        };
        DegreeStats {
            min,
            max,
            mean,
            variance,
            cv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn stats_of_regular_graph_have_zero_variance() {
        // 4-cycle: all degrees 2.
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let s = DegreeStats::of(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(s.variance < 1e-12);
        assert!(s.cv < 1e-12);
    }

    #[test]
    fn stats_of_star_are_skewed() {
        let mut b = GraphBuilder::new(11);
        for v in 1..11 {
            b.add_edge(0, v).unwrap();
        }
        let s = DegreeStats::of(&b.build());
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10);
        assert!(s.cv > 1.0, "star graph should be high-CV, got {}", s.cv);
    }

    #[test]
    fn stats_of_empty_graph() {
        let s = DegreeStats::of(&GraphBuilder::new(0).build());
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }
}
