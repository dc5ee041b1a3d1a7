//! The core undirected graph type, stored in compressed sparse row form.

#[cfg(cgte_mmap)]
use crate::mmap::MappedCsr;
use crate::GraphError;

/// Identifier of a node in a [`Graph`].
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`. `u32` keeps
/// the CSR arrays compact; the paper's largest simulated graphs (hundreds of
/// thousands of nodes) fit comfortably.
pub type NodeId = u32;

/// The physical backing of a graph's CSR arrays.
///
/// Every read accessor on [`Graph`] goes through this enum's two slice
/// getters, which is what makes the rest of the crate (and every
/// downstream consumer) representation-blind: `Owned` holds the familiar
/// heap vectors, `Mapped` borrows the store's fixed-width little-endian
/// payloads in place from a shared read-only file mapping.
#[derive(Clone)]
pub(crate) enum CsrStorage {
    /// Heap-allocated CSR arrays (built graphs, streamed loads).
    Owned {
        /// `offsets[v]..offsets[v+1]` indexes `neighbors` for node `v`.
        offsets: Vec<usize>,
        /// Concatenated, per-node-sorted adjacency lists.
        neighbors: Vec<NodeId>,
    },
    /// CSR arrays borrowed zero-copy from a mapped `.cgteg` file.
    #[cfg(cgte_mmap)]
    Mapped(MappedCsr),
}

impl CsrStorage {
    #[inline]
    fn offsets(&self) -> &[usize] {
        match self {
            CsrStorage::Owned { offsets, .. } => offsets,
            #[cfg(cgte_mmap)]
            CsrStorage::Mapped(m) => m.offsets(),
        }
    }

    #[inline]
    fn neighbors(&self) -> &[NodeId] {
        match self {
            CsrStorage::Owned { neighbors, .. } => neighbors,
            #[cfg(cgte_mmap)]
            CsrStorage::Mapped(m) => m.targets(),
        }
    }
}

/// An undirected, simple, static graph (§2.1 of the paper).
///
/// Stored as CSR: a single flat `neighbors` array plus per-node offsets.
/// Adjacency lists are sorted, so [`Graph::has_edge`] is `O(log deg)` and
/// neighbor iteration is cache-friendly. The structure is immutable after
/// construction — the paper explicitly restricts itself to static graphs.
///
/// The CSR arrays are representation-agnostic (`CsrStorage`): either
/// owned heap vectors, or zero-copy borrows from a memory-mapped `.cgteg`
/// file ([`Graph::is_mapped`]). Equality, hashing of derived results and
/// every accessor depend only on the logical CSR content, never on the
/// backing.
///
/// Construct via [`crate::GraphBuilder`], a generator in
/// [`crate::generators`], or load one with [`crate::store::Loader`].
#[derive(Clone)]
pub struct Graph {
    storage: CsrStorage,
    /// Number of undirected edges `|E|`.
    num_edges: usize,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // Logical CSR content only: a mapped graph equals the owned graph
        // it was serialized from.
        self.storage.offsets() == other.storage.offsets()
            && self.storage.neighbors() == other.storage.neighbors()
    }
}

impl Eq for Graph {}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("offsets", &self.storage.offsets())
            .field("neighbors", &self.storage.neighbors())
            .field("num_edges", &self.num_edges)
            .finish()
    }
}

impl Graph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// Intended for internal use by [`crate::GraphBuilder`]; callers must
    /// guarantee that `offsets` is monotone with `offsets\[0\] == 0`, each
    /// adjacency list is sorted, deduplicated, self-loop-free, and that the
    /// adjacency relation is symmetric. Debug builds verify all of this.
    pub(crate) fn from_csr(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        debug_assert!(
            neighbors.len().is_multiple_of(2),
            "undirected edges stored twice"
        );
        let g = Graph {
            num_edges: neighbors.len() / 2,
            storage: CsrStorage::Owned { offsets, neighbors },
        };
        #[cfg(debug_assertions)]
        g.check_invariants();
        g
    }

    /// Like [`Graph::from_csr`], but without the debug invariant
    /// re-verification: validation is the store loader's responsibility
    /// (it checks per its [`crate::store::Validate`] level — and
    /// `Validate::Trusted` deliberately admits structure the debug checks
    /// would re-derive at `O(V + E)` cost on every load).
    pub(crate) fn from_csr_trusted(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        Graph {
            num_edges: neighbors.len() / 2,
            storage: CsrStorage::Owned { offsets, neighbors },
        }
    }

    /// Builds a graph over CSR arrays borrowed from a file mapping.
    ///
    /// Invariant checking is the loader's responsibility (it validates per
    /// its [`crate::store::Validate`] level *before* constructing this), so
    /// unlike [`Graph::from_csr`] no debug re-verification runs here.
    #[cfg(cgte_mmap)]
    pub(crate) fn from_mapped(csr: MappedCsr) -> Self {
        Graph {
            num_edges: csr.targets().len() / 2,
            storage: CsrStorage::Mapped(csr),
        }
    }

    /// Whether the CSR arrays are zero-copy borrows from a memory-mapped
    /// file (rather than owned heap vectors).
    pub fn is_mapped(&self) -> bool {
        match &self.storage {
            CsrStorage::Owned { .. } => false,
            #[cfg(cgte_mmap)]
            CsrStorage::Mapped(_) => true,
        }
    }

    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        for v in 0..self.num_nodes() {
            let adj = self.neighbors(v as NodeId);
            for w in adj.windows(2) {
                assert!(w[0] < w[1], "adjacency of {v} not strictly sorted");
            }
            for &u in adj {
                assert_ne!(u as usize, v, "self-loop on {v}");
                assert!(
                    self.neighbors(u).binary_search(&(v as NodeId)).is_ok(),
                    "edge ({v},{u}) not symmetric"
                );
            }
        }
    }

    /// Number of nodes `N = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.storage.offsets().len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree `deg(v)` of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        let offsets = self.storage.offsets();
        offsets[v + 1] - offsets[v]
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        let offsets = self.storage.offsets();
        &self.storage.neighbors()[offsets[v]..offsets[v + 1]]
    }

    /// Whether the undirected edge `{u, v}` exists. `O(log deg)`.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // Search the smaller list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Volume `vol(A) = Σ_{v∈A} deg(v)` of a set of nodes (Eq. (1)).
    ///
    /// The nodes need not be distinct; repeated nodes are counted repeatedly,
    /// matching the paper's multiset semantics for samples.
    pub fn volume<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> u64 {
        nodes.into_iter().map(|v| self.degree(v) as u64).sum()
    }

    /// Total volume `vol(V) = 2|E|`.
    #[inline]
    pub fn total_volume(&self) -> u64 {
        2 * self.num_edges as u64
    }

    /// Average node degree `k_V = vol(V) / N` (§4.1.2).
    ///
    /// Returns `0.0` for the empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.total_volume() as f64 / self.num_nodes() as f64
        }
    }

    /// Iterator over all node ids `0..N`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Validates that a node id is in range, for fallible APIs.
    pub fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if (v as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v as u64,
                num_nodes: self.num_nodes() as u64,
            })
        }
    }

    /// The maximum degree in the graph, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// The raw CSR offset array: `offsets[v]..offsets[v+1]` indexes the
    /// neighbor array for node `v` (`num_nodes + 1` entries).
    ///
    /// Exposed for bulk serialization ([`crate::store`]); prefer
    /// [`Graph::neighbors`] for traversal.
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        self.storage.offsets()
    }

    /// The raw concatenated neighbor array (`2 |E|` entries, per-node
    /// sorted). Exposed for bulk serialization ([`crate::store`]).
    #[inline]
    pub fn csr_neighbors(&self) -> &[NodeId] {
        self.storage.neighbors()
    }

    /// Approximate memory used by the CSR arrays, in bytes.
    ///
    /// Useful for sizing experiments; not an exact allocator measurement.
    /// For a mapped graph ([`Graph::is_mapped`]) these bytes are
    /// file-backed page-cache pages shared with other mappings, not
    /// private heap.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.storage.offsets())
            + std::mem::size_of_val(self.storage.neighbors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            b.add_edge((v - 1) as NodeId, v as NodeId).unwrap();
        }
        b.build()
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.total_volume(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in 0..5 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn path_graph_structure() {
        let g = path_graph(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.total_volume(), 6);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = path_graph(5);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn volume_of_multiset_counts_repeats() {
        let g = path_graph(3); // degrees 1, 2, 1
        assert_eq!(g.volume([1, 1, 0]), 5);
    }

    #[test]
    fn check_node_bounds() {
        let g = path_graph(3);
        assert!(g.check_node(2).is_ok());
        assert_eq!(
            g.check_node(3),
            Err(GraphError::NodeOutOfRange {
                node: 3,
                num_nodes: 3
            })
        );
    }

    #[test]
    fn max_degree_star() {
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.max_degree(), 4);
    }

    #[test]
    fn memory_bytes_nonzero() {
        let g = path_graph(10);
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn has_edge_searches_smaller_list() {
        // Star: center has large degree; leaves have degree 1.
        let mut b = GraphBuilder::new(100);
        for v in 1..100 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert!(g.has_edge(0, 57));
        assert!(g.has_edge(57, 0));
        assert!(!g.has_edge(57, 58));
    }
}
