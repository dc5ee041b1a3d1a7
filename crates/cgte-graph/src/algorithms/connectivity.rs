//! Connectivity: components, giant component, BFS.

use crate::{Graph, GraphBuilder, NodeId};
use std::collections::VecDeque;

/// The connected components of a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component_of[v]` is the component index of node `v` (dense, from 0).
    pub component_of: Vec<u32>,
    /// Number of components.
    pub num_components: usize,
    /// `sizes[c]` is the node count of component `c`.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Index of the largest component (ties broken by lower index).
    pub fn giant_index(&self) -> Option<usize> {
        self.sizes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }
}

/// Computes connected components by BFS in `O(N + E)`.
pub fn connected_components(g: &Graph) -> Components {
    let n = g.num_nodes();
    let mut component_of = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for start in 0..n {
        if component_of[start] != u32::MAX {
            continue;
        }
        let c = sizes.len() as u32;
        let mut size = 0usize;
        component_of[start] = c;
        queue.push_back(start as NodeId);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if component_of[v as usize] == u32::MAX {
                    component_of[v as usize] = c;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components {
        component_of,
        num_components: sizes.len(),
        sizes,
    }
}

/// Extracts the largest connected component as a new graph with dense ids.
///
/// Returns the subgraph and the mapping `old_id[new] = old`. The paper's
/// crawling samplers require a connected graph; stand-in generators call
/// this after construction.
pub fn giant_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    let comps = connected_components(g);
    let Some(giant) = comps.giant_index() else {
        return (GraphBuilder::new(0).build(), Vec::new());
    };
    let giant = giant as u32;
    let mut new_id = vec![NodeId::MAX; g.num_nodes()];
    let mut old_id = Vec::new();
    for (v, &comp) in comps.component_of.iter().enumerate() {
        if comp == giant {
            new_id[v] = old_id.len() as NodeId;
            old_id.push(v as NodeId);
        }
    }
    let mut b = GraphBuilder::new(old_id.len());
    for (u, v) in g.edges() {
        if comps.component_of[u as usize] == giant && comps.component_of[v as usize] == giant {
            b.add_edge(new_id[u as usize], new_id[v as usize])
                .expect("remapped ids in range");
        }
    }
    (b.build(), old_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_components() -> Graph {
        // triangle {0,1,2} + edge {3,4} + isolated 5
        GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)]).unwrap()
    }

    #[test]
    fn components_counts() {
        let g = two_components();
        let c = connected_components(&g);
        assert_eq!(c.num_components, 3);
        let mut sizes = c.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert_eq!(c.component_of[0], c.component_of[2]);
        assert_ne!(c.component_of[0], c.component_of[3]);
    }

    #[test]
    fn giant_component_extraction() {
        let g = two_components();
        let (giant, old_ids) = giant_component(&g);
        assert_eq!(giant.num_nodes(), 3);
        assert_eq!(giant.num_edges(), 3);
        assert_eq!(old_ids, vec![0, 1, 2]);
    }

    #[test]
    fn giant_of_empty_graph() {
        let g = GraphBuilder::new(0).build();
        let (giant, old_ids) = giant_component(&g);
        assert_eq!(giant.num_nodes(), 0);
        assert!(old_ids.is_empty());
    }

    #[test]
    fn giant_of_edgeless_graph_is_single_node() {
        let g = GraphBuilder::new(4).build();
        let (giant, old_ids) = giant_component(&g);
        assert_eq!(giant.num_nodes(), 1);
        assert_eq!(old_ids.len(), 1);
    }

    #[test]
    fn components_fully_connected() {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.num_components, 1);
        assert_eq!(c.giant_index(), Some(0));
        assert_eq!(c.sizes, vec![4]);
    }
}
