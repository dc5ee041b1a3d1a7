//! Synthetic stand-ins for the paper's Table 1 evaluation graphs.
//!
//! The paper's §6.3 uses four fully known empirical graphs (two Facebook
//! regional networks, a Gnutella P2P snapshot, and Epinions). Those files
//! are not redistributable here, so each is replaced by a generated graph
//! matched on the published node count and mean degree, with:
//!
//! - a **power-law degree-weight distribution** reproducing the heavy
//!   degree skew the paper's §6.3.2 analysis hinges on, and
//! - **planted homophilous blocks** (Zipf-sized, layered Chung–Lu) giving
//!   the strong community structure that makes the paper's §6.3.1
//!   community-derived categories the worst case for star sampling.
//!
//! Graphs are reduced to their giant component. Category partitions are
//! built the same way as in the paper: top-50 communities from a community
//! finder plus one rest category.

use crate::facebook::zipf_sizes;
use crate::layered::chung_lu_over;
use cgte_graph::algorithms::{
    giant_component, label_propagation, leading_eigenvector_communities, top_k_partition,
    CommunityOptions,
};
use cgte_graph::generators::{powerlaw_weights, scale_to_mean};
use cgte_graph::{Graph, GraphBuilder, NodeId, Partition};
use rand::Rng;

/// The four Table 1 datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StandinKind {
    /// Facebook Texas network \[62\]: 36 364 nodes, k_V = 87.5 (dense).
    FacebookTexas,
    /// Facebook New Orleans network \[64\]: 63 392 nodes, k_V = 25.8.
    FacebookNewOrleans,
    /// Gnutella P2P snapshot \[40\]: 62 561 nodes, k_V = 4.7 (sparse).
    P2p,
    /// Epinions trust graph \[54\]: 75 877 nodes, k_V = 10.7.
    Epinions,
}

impl StandinKind {
    /// All four datasets in Table 1 order.
    pub const ALL: [StandinKind; 4] = [
        StandinKind::FacebookTexas,
        StandinKind::FacebookNewOrleans,
        StandinKind::P2p,
        StandinKind::Epinions,
    ];

    /// Display name as in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            StandinKind::FacebookTexas => "Facebook: Texas",
            StandinKind::FacebookNewOrleans => "Facebook: New Orleans",
            StandinKind::P2p => "P2P",
            StandinKind::Epinions => "Epinions",
        }
    }

    /// Published `(|V|, k_V)` from Table 1.
    pub fn published(self) -> (usize, f64) {
        match self {
            StandinKind::FacebookTexas => (36_364, 87.5),
            StandinKind::FacebookNewOrleans => (63_392, 25.8),
            StandinKind::P2p => (62_561, 4.7),
            StandinKind::Epinions => (75_877, 10.7),
        }
    }

    /// Power-law exponent for the degree-weight distribution.
    ///
    /// Social graphs (Facebook, Epinions) are heavier-tailed than the
    /// engineered Gnutella overlay; the exact exponents matter less than
    /// the presence of skew, which drives the §6.3.2 effects.
    fn gamma(self) -> f64 {
        match self {
            StandinKind::FacebookTexas => 2.4,
            StandinKind::FacebookNewOrleans => 2.4,
            StandinKind::P2p => 3.0,
            StandinKind::Epinions => 2.2,
        }
    }

    /// Fraction of each node's expected degree spent inside its planted
    /// block. Social graphs are strongly clustered; the P2P overlay much
    /// less so.
    fn homophily(self) -> f64 {
        match self {
            StandinKind::FacebookTexas => 0.6,
            StandinKind::FacebookNewOrleans => 0.6,
            StandinKind::P2p => 0.3,
            StandinKind::Epinions => 0.5,
        }
    }
}

/// Number of planted blocks per stand-in (enough to carve out the paper's
/// 50 largest communities at full scale).
const NUM_BLOCKS: usize = 64;

/// Generates a stand-in graph for `kind`, scaled down by `scale_div`
/// (1 = full published size). Returns the giant component.
///
/// The realized mean degree tracks the published `k_V` (exactly in
/// expectation before giant-component extraction).
///
/// # Panics
/// Panics if `scale_div == 0`.
pub fn standin<R: Rng + ?Sized>(kind: StandinKind, scale_div: usize, rng: &mut R) -> Graph {
    assert!(scale_div >= 1, "scale divisor must be positive");
    let (n_pub, kv) = kind.published();
    let n = (n_pub / scale_div).max(300);
    let w_max = (n as f64).sqrt() * kv.max(1.0);
    let mut w = powerlaw_weights(n, kind.gamma(), 1.0, w_max, rng);
    scale_to_mean(&mut w, kv);

    // Planted Zipf-sized blocks: `h` of each node's weight goes to its
    // block layer, the rest to the global layer.
    let h = kind.homophily();
    let blocks = zipf_sizes(n, NUM_BLOCKS.min(n / 4).max(1), 0.8);
    let mut b = GraphBuilder::with_capacity(n, (n as f64 * kv / 2.0) as usize);
    let global_w: Vec<f64> = w.iter().map(|x| x * (1.0 - h)).collect();
    chung_lu_over(
        &(0..n as NodeId).collect::<Vec<_>>(),
        &global_w,
        &mut b,
        rng,
    );
    let mut base = 0usize;
    for &s in &blocks {
        let members: Vec<NodeId> = (base..base + s).map(|v| v as NodeId).collect();
        let wts: Vec<f64> = members.iter().map(|&v| w[v as usize] * h).collect();
        chung_lu_over(&members, &wts, &mut b, rng);
        base += s;
    }
    giant_component(&b.build()).0
}

/// Generates a million-node stand-in: the published topology scaled **up**
/// by `scale_mul`, built by the thread-invariant parallel layered
/// Chung–Lu path ([`cgte_graph::generators::par_chung_lu_layers`]).
///
/// The construction mirrors [`standin`] — a global expected-degree layer
/// plus Zipf-sized homophilous block layers, reduced to the giant
/// component — but proposes every layer's edges concurrently in chunks
/// with counter-derived RNG streams, so the result depends only on
/// `(kind, scale_mul, seed)`, never on `threads`.
///
/// # Panics
/// Panics if `scale_mul == 0`.
pub fn standin_huge(kind: StandinKind, scale_mul: usize, seed: u64, threads: usize) -> Graph {
    use cgte_graph::generators::{par_chung_lu_layers, ChungLuLayer};
    use cgte_graph::parallel::stream_seed;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(scale_mul >= 1, "scale multiplier must be positive");
    let (n_pub, kv) = kind.published();
    let n = n_pub * scale_mul;
    let w_max = (n as f64).sqrt() * kv.max(1.0);
    // Weight sampling is serial (a few tens of ms even at 2M nodes) from
    // a dedicated stream, keeping layer proposal the only parallel stage.
    let mut wrng = StdRng::seed_from_u64(stream_seed(seed, 0x57A2));
    let mut w = powerlaw_weights(n, kind.gamma(), 1.0, w_max, &mut wrng);
    scale_to_mean(&mut w, kv);

    let h = kind.homophily();
    let blocks = zipf_sizes(n, NUM_BLOCKS.min(n / 4).max(1), 0.8);

    // Each layer wants its members sorted by descending weight (the
    // Miller–Hagberg row order); ties break on node id so the order is a
    // pure function of the weights.
    let sort_desc = |members: std::ops::Range<usize>, scale: f64| {
        let mut idx: Vec<NodeId> = members.clone().map(|v| v as NodeId).collect();
        idx.sort_unstable_by(|&a, &b| {
            w[b as usize]
                .partial_cmp(&w[a as usize])
                .expect("finite")
                .then(a.cmp(&b))
        });
        let wts: Vec<f64> = idx.iter().map(|&v| w[v as usize] * scale).collect();
        (idx, wts)
    };

    let mut owned: Vec<(Vec<NodeId>, Vec<f64>, u64)> = Vec::with_capacity(blocks.len() + 1);
    owned.push({
        let (ids, wts) = sort_desc(0..n, 1.0 - h);
        (ids, wts, 0)
    });
    let mut base = 0usize;
    for (bi, &s) in blocks.iter().enumerate() {
        let (ids, wts) = sort_desc(base..base + s, h);
        owned.push((ids, wts, 1 + bi as u64));
        base += s;
    }
    let layers: Vec<ChungLuLayer<'_>> = owned
        .iter()
        .map(|(ids, wts, salt)| ChungLuLayer {
            ids,
            weights: wts,
            salt: *salt,
        })
        .collect();
    let g = par_chung_lu_layers(n, &layers, stream_seed(seed, 0xED6E), threads);
    giant_component(&g).0
}

/// Builds the paper's §6.3.1 category partition for a stand-in: the `top_k`
/// largest communities become categories, the rest is grouped as one more.
///
/// `spectral = true` uses Newman's leading-eigenvector method (the paper's
/// \[47\]) — the recommended setting: on these dense homophilous graphs,
/// label propagation (`false`) tends to collapse into one giant community
/// and is kept only as a cheap first pass for very large inputs.
pub fn standin_partition<R: Rng + ?Sized>(
    g: &Graph,
    top_k: usize,
    spectral: bool,
    rng: &mut R,
) -> Partition {
    let labels = if spectral {
        let opts = CommunityOptions {
            max_communities: 4 * top_k,
            max_power_iters: 150,
            ..Default::default()
        };
        leading_eigenvector_communities(g, &opts, rng)
    } else {
        label_propagation(g, 50, rng)
    };
    top_k_partition(&labels, top_k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::algorithms::{connected_components, modularity, DegreeStats};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn published_statistics_match_table1() {
        assert_eq!(StandinKind::FacebookTexas.published(), (36_364, 87.5));
        assert_eq!(StandinKind::P2p.published().0, 62_561);
        assert_eq!(StandinKind::ALL.len(), 4);
        for k in StandinKind::ALL {
            assert!(!k.name().is_empty());
        }
    }

    #[test]
    fn standin_mean_degree_tracks_published() {
        let mut rng = StdRng::seed_from_u64(1);
        // Scaled-down for test speed; CL mean degree is scale-free.
        for kind in [StandinKind::FacebookNewOrleans, StandinKind::Epinions] {
            let g = standin(kind, 20, &mut rng);
            let (_, kv) = kind.published();
            let got = g.mean_degree();
            assert!(
                (got - kv).abs() / kv < 0.25,
                "{}: mean degree {got} vs published {kv}",
                kind.name()
            );
        }
    }

    #[test]
    fn standin_is_connected_giant() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = standin(StandinKind::P2p, 30, &mut rng);
        assert_eq!(connected_components(&g).num_components, 1);
        assert!(g.num_nodes() > 500);
    }

    #[test]
    fn standin_degree_distribution_is_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = standin(StandinKind::Epinions, 20, &mut rng);
        let s = DegreeStats::of(&g);
        assert!(
            s.cv > 1.0,
            "Epinions stand-in should be high-CV, got {}",
            s.cv
        );
        assert!(
            s.max as f64 > 10.0 * s.mean,
            "hub missing: max {} mean {}",
            s.max,
            s.mean
        );
    }

    #[test]
    fn standin_has_community_structure() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = standin(StandinKind::FacebookNewOrleans, 40, &mut rng);
        let opts = CommunityOptions {
            max_communities: 40,
            max_power_iters: 150,
            ..Default::default()
        };
        let labels = leading_eigenvector_communities(&g, &opts, &mut rng);
        let q = modularity(&g, &labels);
        let found = labels.iter().map(|&c| c as usize + 1).max().unwrap_or(1);
        assert!(found >= 5, "expected several communities, found {found}");
        assert!(
            q > 0.15,
            "modularity {q} too weak for a planted-block graph"
        );
    }

    #[test]
    fn partition_has_topk_plus_rest_shape() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = standin(StandinKind::P2p, 60, &mut rng);
        let p = standin_partition(&g, 10, false, &mut rng);
        assert!(p.num_categories() <= 11);
        assert!(
            p.num_categories() >= 3,
            "found {} categories",
            p.num_categories()
        );
        assert_eq!(p.num_nodes(), g.num_nodes());
        // Categories ordered by descending size among the top-k.
        for c in 1..p.num_categories().saturating_sub(1) as u32 {
            assert!(p.category_size(c - 1) >= p.category_size(c));
        }
    }

    #[test]
    fn standin_huge_is_thread_invariant() {
        // scale_mul = 1 keeps the test CI-sized; thread-invariance is the
        // property (the multiplier only changes n).
        let a = standin_huge(StandinKind::P2p, 1, 99, 1);
        let b = standin_huge(StandinKind::P2p, 1, 99, 2);
        let c = standin_huge(StandinKind::P2p, 1, 99, 8);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(a.num_nodes() > 10_000, "giant component too small");
        let (_, kv) = StandinKind::P2p.published();
        assert!(
            (a.mean_degree() - kv).abs() / kv < 0.3,
            "mean degree {} vs published {kv}",
            a.mean_degree()
        );
    }

    #[test]
    fn standin_huge_scales_node_count() {
        let g1 = standin_huge(StandinKind::P2p, 1, 5, 0);
        let g2 = standin_huge(StandinKind::P2p, 2, 5, 0);
        assert!(
            g2.num_nodes() > g1.num_nodes() * 3 / 2,
            "{} vs {}",
            g2.num_nodes(),
            g1.num_nodes()
        );
    }

    /// The spectral partitions of fig4's four default-scale stand-ins
    /// (`scale_div` 8, top-20, the scenario's seeds), pinned by an FNV-1a
    /// digest of their labels: a change to the leading-eigenvector path
    /// that moves one node's category fails here.
    #[test]
    fn fig4_spectral_partitions_are_pinned() {
        const FIG4_SEED: u64 = 0x2012_5EED;
        let pins = [
            (StandinKind::FacebookTexas, 0, 0xf929_cf20_1188_4d24u64),
            (
                StandinKind::FacebookNewOrleans,
                40503,
                0xabc9_0005_79fd_c9b7,
            ),
            (StandinKind::P2p, 81006, 0xd28c_705e_be3e_cb3f),
            (StandinKind::Epinions, 121509, 0xd296_1aa4_0297_db04),
        ];
        // Compared as hex strings so a failure prints digests as pinned.
        let got: Vec<(&str, String)> = pins
            .iter()
            .map(|&(kind, seed_xor, _)| {
                let mut rng = StdRng::seed_from_u64(FIG4_SEED ^ seed_xor);
                let g = standin(kind, 8, &mut rng);
                let p = standin_partition(&g, 20, true, &mut rng);
                let digest = p
                    .assignments()
                    .iter()
                    .flat_map(|c| c.to_le_bytes())
                    .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
                    });
                (kind.name(), format!("{digest:#018x}"))
            })
            .collect();
        let want: Vec<(&str, String)> = pins
            .iter()
            .map(|&(k, _, d)| (k.name(), format!("{d:#018x}")))
            .collect();
        assert_eq!(got, want, "label digests moved");
    }

    #[test]
    fn spectral_partition_on_small_standin() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = standin(StandinKind::P2p, 200, &mut rng);
        let p = standin_partition(&g, 5, true, &mut rng);
        assert_eq!(p.num_nodes(), g.num_nodes());
        assert!(p.num_categories() >= 2);
    }
}
