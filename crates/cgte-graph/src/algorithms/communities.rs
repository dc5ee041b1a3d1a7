//! Community detection.
//!
//! §6.3.1 of the paper builds its "worst-case" category partitions with "a
//! standard community finding algorithm based on eigenvalues" — Newman's
//! leading-eigenvector modularity method (the paper's reference \[47\]). We
//! implement that method (recursive spectral bisection of the modularity
//! matrix via power iteration) plus label propagation as a fast alternative,
//! and the paper's top-50-plus-rest category construction.

use crate::{CategoryId, Graph, NodeId, Partition};
use rand::Rng;

/// Newman modularity `Q = Σ_c [ e_c/m − (K_c/2m)² ]` of a partition, where
/// `e_c` is the number of intra-community edges and `K_c` the community
/// volume.
///
/// Returns 0 for an edgeless graph.
pub fn modularity(g: &Graph, labels: &[CategoryId]) -> f64 {
    assert_eq!(labels.len(), g.num_nodes(), "labels must cover all nodes");
    let m = g.num_edges() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let num_c = labels.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut intra = vec![0u64; num_c];
    let mut vol = vec![0u64; num_c];
    for (u, v) in g.edges() {
        if labels[u as usize] == labels[v as usize] {
            intra[labels[u as usize] as usize] += 1;
        }
    }
    for v in 0..g.num_nodes() {
        vol[labels[v] as usize] += g.degree(v as NodeId) as u64;
    }
    let two_m = 2.0 * m;
    (0..num_c)
        .map(|c| intra[c] as f64 / m - (vol[c] as f64 / two_m).powi(2))
        .sum()
}

/// Options for [`leading_eigenvector_communities`].
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityOptions {
    /// Stop splitting a group when the modularity gain falls below this.
    pub min_delta_q: f64,
    /// Hard cap on the number of communities produced.
    pub max_communities: usize,
    /// Maximum power-iteration steps per eigenvector.
    pub max_power_iters: usize,
    /// Relative eigenvalue tolerance for power-iteration convergence.
    pub tolerance: f64,
}

impl Default for CommunityOptions {
    fn default() -> Self {
        CommunityOptions {
            min_delta_q: 1e-7,
            max_communities: usize::MAX,
            max_power_iters: 500,
            tolerance: 1e-7,
        }
    }
}

/// One work group's induced subgraph, built once per group: row `i` lists
/// the group indices of `group[i]`'s in-group neighbours in their global
/// adjacency order, next to `k_i` and the self term
/// `d_i^{(g)} − k_i K_g / 2m`.
struct GroupCsr {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    degree: Vec<f64>,
    self_term: Vec<f64>,
    two_m: f64,
}

impl GroupCsr {
    /// `local[v]` maps global node id to group index, `u32::MAX` outside.
    fn new(g: &Graph, group: &[NodeId], local: &[u32]) -> Self {
        let two_m = g.total_volume() as f64;
        let mut offsets = Vec::with_capacity(group.len() + 1);
        offsets.push(0);
        let mut neighbors = Vec::new();
        for &v in group {
            neighbors.extend(
                g.neighbors(v)
                    .iter()
                    .map(|&u| local[u as usize])
                    .filter(|&j| j != u32::MAX),
            );
            offsets.push(neighbors.len());
        }
        let degree: Vec<f64> = group.iter().map(|&v| g.degree(v) as f64).collect();
        let group_volume: f64 = degree.iter().sum();
        let self_term = degree
            .iter()
            .zip(offsets.windows(2))
            .map(|(&k_i, w)| (w[1] - w[0]) as f64 - k_i * group_volume / two_m)
            .collect();
        GroupCsr {
            offsets,
            neighbors,
            degree,
            self_term,
            two_m,
        }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i]..self.offsets[i + 1]]
    }

    /// `y = (B^(g) + shift·I) x` (Newman 2006, Eq. 6): for `i` in the group,
    /// `y_i = Σ_{j∈g, j∼i} x_j − (k_i/2m)·Σ_{j∈g} k_j x_j − x_i·(d_i^{(g)} − k_i K_g / 2m)`,
    /// plus `shift·x_i` when `shift` is not zero.
    ///
    /// Rows go four at a time so four independent add chains overlap; each
    /// row's sum still starts from `0.0` and adds in adjacency order, so
    /// every `y_i` is the same to the bit as a row-at-a-time sum.
    fn matvec(&self, x: &[f64], shift: f64, y: &mut [f64]) {
        let kx: f64 = self
            .degree
            .iter()
            .zip(x)
            .map(|(&k_i, &x_i)| k_i * x_i)
            .sum();
        let finish = |i: usize, a_x: f64| {
            let v = a_x - self.degree[i] * kx / self.two_m - x[i] * self.self_term[i];
            if shift != 0.0 {
                v + shift * x[i]
            } else {
                v
            }
        };
        let n = x.len();
        let quads = n - n % 4;
        for i in (0..quads).step_by(4) {
            let rows: [&[u32]; 4] = std::array::from_fn(|q| self.row(i + q));
            let common = rows.iter().map(|r| r.len()).min().unwrap_or(0);
            let [r0, r1, r2, r3] = rows.map(|r| &r[..common]);
            let mut a_x = [0.0f64; 4];
            for t in 0..common {
                a_x[0] += x[r0[t] as usize];
                a_x[1] += x[r1[t] as usize];
                a_x[2] += x[r2[t] as usize];
                a_x[3] += x[r3[t] as usize];
            }
            for (a, r) in a_x.iter_mut().zip(&rows) {
                for &j in &r[common..] {
                    *a += x[j as usize];
                }
            }
            for (q, &a) in a_x.iter().enumerate() {
                y[i + q] = finish(i + q, a);
            }
        }
        for (i, y_i) in (quads..n).zip(&mut y[quads..n]) {
            let mut a_x = 0.0;
            for &j in self.row(i) {
                a_x += x[j as usize];
            }
            *y_i = finish(i, a_x);
        }
    }
}

/// Power iteration for the most-positive eigenpair of `B^(g)`.
///
/// Two phases: find the dominant-magnitude eigenvalue first; if it is
/// negative, re-run on the shifted matrix `B + (|λ|+1)·I` whose dominant
/// eigenvalue corresponds to B's most positive one.
fn leading_eigenpair<R: Rng + ?Sized>(
    csr: &GroupCsr,
    opts: &CommunityOptions,
    rng: &mut R,
) -> (f64, Vec<f64>) {
    let n = csr.degree.len();
    let run = |shift: f64, rng: &mut R| -> (f64, Vec<f64>) {
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y = vec![0.0; n];
        let mut lambda = 0.0f64;
        for _ in 0..opts.max_power_iters {
            csr.matvec(&x, shift, &mut y);
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return (0.0, x);
            }
            for v in y.iter_mut() {
                *v /= norm;
            }
            // Rayleigh quotient of the shifted matrix equals `norm` up to
            // sign; track convergence via successive eigenvalue estimates.
            let new_lambda = norm;
            std::mem::swap(&mut x, &mut y);
            let converged =
                (new_lambda - lambda).abs() <= opts.tolerance * new_lambda.abs().max(1.0);
            lambda = new_lambda;
            if converged {
                break;
            }
        }
        // Signed Rayleigh quotient for the unshifted matrix.
        csr.matvec(&x, 0.0, &mut y);
        let rq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        (rq, x)
    };
    let (lam, vec) = run(0.0, rng);
    if lam >= 0.0 {
        (lam, vec)
    } else {
        // Dominant eigenvalue negative: shift and find the most positive.
        let (lam2, vec2) = run(lam.abs() + 1.0, rng);
        (lam2, vec2)
    }
}

/// Newman's leading-eigenvector community detection (the paper's \[47\]).
///
/// Recursively bisects node groups by the sign of the leading eigenvector of
/// the (generalized) modularity matrix, accepting a split only if it
/// increases modularity by at least `opts.min_delta_q`. Returns dense
/// community labels per node.
///
/// Deterministic given the RNG seed (the power-iteration start vector is the
/// only randomness).
pub fn leading_eigenvector_communities<R: Rng + ?Sized>(
    g: &Graph,
    opts: &CommunityOptions,
    rng: &mut R,
) -> Vec<CategoryId> {
    let n = g.num_nodes();
    let mut labels = vec![0 as CategoryId; n];
    if n == 0 || g.num_edges() == 0 {
        return labels;
    }
    let mut local = vec![u32::MAX; n];
    let mut final_groups: Vec<Vec<NodeId>> = Vec::new();
    let mut work: Vec<Vec<NodeId>> = vec![(0..n as NodeId).collect()];
    let four_m = 2.0 * g.total_volume() as f64;

    while let Some(group) = work.pop() {
        if group.len() < 2 || final_groups.len() + work.len() + 1 >= opts.max_communities {
            final_groups.push(group);
            continue;
        }
        for (i, &v) in group.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let csr = GroupCsr::new(g, &group, &local);
        for &v in &group {
            local[v as usize] = u32::MAX;
        }
        let (lambda, vec) = leading_eigenpair(&csr, opts, rng);

        let mut accept = false;
        let mut a: Vec<NodeId> = Vec::new();
        let mut b: Vec<NodeId> = Vec::new();
        if lambda > opts.tolerance {
            let s: Vec<f64> = vec
                .iter()
                .map(|&x| if x >= 0.0 { 1.0 } else { -1.0 })
                .collect();
            // ΔQ = s·(B s) / 4m.
            let mut bs = vec![0.0; group.len()];
            csr.matvec(&s, 0.0, &mut bs);
            let delta_q: f64 = s.iter().zip(&bs).map(|(x, y)| x * y).sum::<f64>() / four_m;
            if delta_q > opts.min_delta_q {
                for (i, &v) in group.iter().enumerate() {
                    if s[i] > 0.0 {
                        a.push(v);
                    } else {
                        b.push(v);
                    }
                }
                accept = !a.is_empty() && !b.is_empty();
            }
        }
        if accept {
            work.push(a);
            work.push(b);
        } else {
            final_groups.push(group);
        }
    }

    for (c, group) in final_groups.iter().enumerate() {
        for &v in group {
            labels[v as usize] = c as CategoryId;
        }
    }
    labels
}

/// Asynchronous label propagation (Raghavan et al.): each node repeatedly
/// adopts the most frequent label among its neighbors, until stable.
///
/// Much faster than the spectral method; used for large stand-ins and as a
/// cross-check in tests. Returns dense community labels.
pub fn label_propagation<R: Rng + ?Sized>(
    g: &Graph,
    max_sweeps: usize,
    rng: &mut R,
) -> Vec<CategoryId> {
    use rand::seq::SliceRandom;
    let n = g.num_nodes();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for _ in 0..max_sweeps {
        order.shuffle(rng);
        let mut changed = 0usize;
        for &v in &order {
            if g.degree(v) == 0 {
                continue;
            }
            counts.clear();
            for &u in g.neighbors(v) {
                *counts.entry(labels[u as usize]).or_insert(0) += 1;
            }
            // Highest count; ties broken by smaller label for determinism.
            let best = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(&l, _)| l)
                .expect("non-isolated node has neighbors");
            if best != labels[v as usize] {
                labels[v as usize] = best;
                changed += 1;
            }
        }
        if changed == 0 {
            break;
        }
    }
    // Densify labels.
    let mut remap: std::collections::HashMap<u32, CategoryId> = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = remap.len() as CategoryId;
            *remap.entry(l).or_insert(next)
        })
        .collect()
}

/// Builds the paper's §6.3.1 category partition from community labels: the
/// `k` largest communities become categories `0..k` (in descending size
/// order) and all remaining nodes are grouped into category `k`.
///
/// If there are at most `k` communities the result simply relabels them by
/// descending size (no rest category).
pub fn top_k_partition(labels: &[CategoryId], k: usize) -> Partition {
    let num_c = labels.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let mut sizes: Vec<(usize, usize)> = vec![(0, 0); num_c]; // (size, community)
    for (c, entry) in sizes.iter_mut().enumerate() {
        entry.1 = c;
    }
    for &l in labels {
        sizes[l as usize].0 += 1;
    }
    sizes.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut new_label = vec![0 as CategoryId; num_c];
    let kept = k.min(num_c);
    let has_rest = num_c > k;
    for (rank, &(_, c)) in sizes.iter().enumerate() {
        new_label[c] = if rank < kept {
            rank as CategoryId
        } else {
            kept as CategoryId
        };
    }
    let num_cats = kept + usize::from(has_rest);
    let assignment: Vec<CategoryId> = labels.iter().map(|&l| new_label[l as usize]).collect();
    Partition::from_assignments(assignment, num_cats.max(1))
        .expect("relabeled assignment is in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{planted_partition, PlantedConfig};
    use crate::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Two 5-cliques joined by one edge — unambiguous two-community graph.
    fn two_cliques() -> Graph {
        let mut b = GraphBuilder::new(10);
        for base in [0u32, 5] {
            for u in 0..5 {
                for v in (u + 1)..5 {
                    b.add_edge(base + u, base + v).unwrap();
                }
            }
        }
        b.add_edge(0, 5).unwrap();
        b.build()
    }

    /// The row-at-a-time matvec over the group's global adjacency rows,
    /// kept as the oracle `GroupCsr::matvec` must match to the bit.
    fn modularity_matvec(
        g: &Graph,
        group: &[NodeId],
        local: &[usize],
        deg_in_group: &[f64],
        group_volume: f64,
        x: &[f64],
        y: &mut [f64],
    ) {
        let two_m = g.total_volume() as f64;
        let kx: f64 = group
            .iter()
            .enumerate()
            .map(|(i, &v)| g.degree(v) as f64 * x[i])
            .sum();
        for (i, &v) in group.iter().enumerate() {
            let k_i = g.degree(v) as f64;
            let mut a_x = 0.0;
            for &u in g.neighbors(v) {
                let j = local[u as usize];
                if j != usize::MAX {
                    a_x += x[j];
                }
            }
            let self_term = deg_in_group[i] - k_i * group_volume / two_m;
            y[i] = a_x - k_i * kx / two_m - x[i] * self_term;
        }
    }

    /// `GroupCsr::matvec` against the oracle, `to_bits`, on seeded random
    /// graphs and groups: groups of 2–5 nodes (fewer rows than the
    /// interleave width, or one quad and a tail), rows shorter than four
    /// entries, rows with out-of-group neighbours, and shifted runs.
    #[test]
    fn group_matvec_matches_the_row_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(26);
        for trial in 0..60 {
            let n = 8 + trial % 50;
            let p = [0.05, 0.2, 0.6][trial % 3];
            let mut b = GraphBuilder::new(n);
            for u in 0..n as NodeId {
                for v in (u + 1)..n as NodeId {
                    if rng.gen_bool(p) {
                        b.add_edge(u, v).unwrap();
                    }
                }
            }
            let g = b.build();
            if g.num_edges() == 0 {
                continue;
            }
            let size = if trial % 2 == 0 {
                2 + trial % 4
            } else {
                rng.gen_range(2..=n)
            };
            let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
            nodes.shuffle(&mut rng);
            let group = &nodes[..size];
            let mut local = vec![usize::MAX; n];
            let mut local32 = vec![u32::MAX; n];
            for (i, &v) in group.iter().enumerate() {
                local[v as usize] = i;
                local32[v as usize] = i as u32;
            }
            let deg_in_group: Vec<f64> = group
                .iter()
                .map(|&v| {
                    g.neighbors(v)
                        .iter()
                        .filter(|&&u| local[u as usize] != usize::MAX)
                        .count() as f64
                })
                .collect();
            let group_volume: f64 = group.iter().map(|&v| g.degree(v) as f64).sum();
            let csr = GroupCsr::new(&g, group, &local32);
            for shift in [0.0, 2.75] {
                let x: Vec<f64> = (0..size).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let mut want = vec![0.0; size];
                modularity_matvec(
                    &g,
                    group,
                    &local,
                    &deg_in_group,
                    group_volume,
                    &x,
                    &mut want,
                );
                if shift != 0.0 {
                    for i in 0..size {
                        want[i] += shift * x[i];
                    }
                }
                let mut got = vec![0.0; size];
                csr.matvec(&x, shift, &mut got);
                let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "trial {trial}, shift {shift}");
            }
        }
    }

    #[test]
    fn modularity_of_perfect_split() {
        let g = two_cliques();
        let labels = vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let q = modularity(&g, &labels);
        // 21 edges, 20 intra; Q = 20/21 - 2*(21/42)^2 ≈ 0.452.
        assert!((q - (20.0 / 21.0 - 0.5)).abs() < 1e-9, "q = {q}");
        // Trivial partition has Q = 0 minus volume term... actually all-in-one:
        let q0 = modularity(&g, &[0; 10]);
        assert!(q0.abs() < 1e-9, "single community Q should be 0, got {q0}");
        assert!(q > q0);
    }

    #[test]
    fn modularity_of_edgeless_graph_is_zero() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(modularity(&g, &[0, 1, 2, 3, 4]), 0.0);
    }

    #[test]
    fn leading_eigenvector_splits_two_cliques() {
        let g = two_cliques();
        let mut rng = StdRng::seed_from_u64(1);
        let labels = leading_eigenvector_communities(&g, &CommunityOptions::default(), &mut rng);
        // Nodes 0-4 share a label distinct from nodes 5-9.
        assert_eq!(labels[0], labels[4]);
        assert_eq!(labels[5], labels[9]);
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn leading_eigenvector_recovers_planted_blocks() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PlantedConfig {
            category_sizes: vec![60, 60, 60],
            k: 8,
            alpha: 0.0,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let labels =
            leading_eigenvector_communities(&pg.graph, &CommunityOptions::default(), &mut rng);
        let q = modularity(&pg.graph, &labels);
        let q_true = modularity(&pg.graph, pg.partition.assignments());
        assert!(q > 0.8 * q_true, "found Q={q:.3} vs planted Q={q_true:.3}");
    }

    #[test]
    fn leading_eigenvector_respects_max_communities() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PlantedConfig {
            category_sizes: vec![40; 8],
            k: 6,
            alpha: 0.0,
        };
        let pg = planted_partition(&cfg, &mut rng).unwrap();
        let opts = CommunityOptions {
            max_communities: 3,
            ..Default::default()
        };
        let labels = leading_eigenvector_communities(&pg.graph, &opts, &mut rng);
        let n_comms = labels.iter().map(|&c| c as usize + 1).max().unwrap();
        assert!(n_comms <= 3, "got {n_comms} communities");
    }

    #[test]
    fn label_propagation_splits_two_cliques() {
        let g = two_cliques();
        let mut rng = StdRng::seed_from_u64(2);
        let labels = label_propagation(&g, 100, &mut rng);
        assert_eq!(labels[1], labels[4]);
        assert_eq!(labels[6], labels[9]);
        assert_ne!(labels[1], labels[6]);
    }

    #[test]
    fn label_propagation_handles_isolated_nodes() {
        let g = GraphBuilder::from_edges(4, [(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let labels = label_propagation(&g, 10, &mut rng);
        assert_eq!(labels.len(), 4);
        assert_eq!(labels[0], labels[1]);
    }

    #[test]
    fn top_k_partition_orders_by_size_and_groups_rest() {
        // Communities: 0 (3 nodes), 1 (5 nodes), 2 (1 node), 3 (2 nodes).
        let labels = vec![0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 3];
        let p = top_k_partition(&labels, 2);
        assert_eq!(p.num_categories(), 3); // top-2 + rest
        assert_eq!(p.category_size(0), 5); // biggest first
        assert_eq!(p.category_size(1), 3);
        assert_eq!(p.category_size(2), 3); // 1 + 2 grouped as rest
    }

    #[test]
    fn top_k_partition_without_rest() {
        let labels = vec![0, 1, 1, 2];
        let p = top_k_partition(&labels, 5);
        assert_eq!(p.num_categories(), 3);
        assert_eq!(p.category_size(0), 2);
    }

    #[test]
    fn empty_graph_yields_single_label() {
        let g = GraphBuilder::new(0).build();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(
            leading_eigenvector_communities(&g, &CommunityOptions::default(), &mut rng).is_empty()
        );
    }
}
