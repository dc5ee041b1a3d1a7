//! Observation scenarios (§3.2): what a measurement records about a sample.
//!
//! Estimators never see the graph — they see one of these observation
//! structures, exactly the information a real crawler would have collected.
//!
//! Two consumption styles are supported:
//!
//! - **Materialized observations** ([`InducedSample`], [`StarSample`]):
//!   self-contained records that the bootstrap resamples and the
//!   from-scratch estimators (the streamed forms' test oracles) read.
//! - **Incremental accumulators** ([`InducedAccumulator`],
//!   [`StarAccumulator`]): running sufficient statistics that support
//!   `push(node)` in `O(deg)` and an `O(C²)` snapshot, so growing-prefix
//!   protocols walk a sampled sequence *once* instead of re-observing every
//!   prefix. Backed by an [`ObservationContext`] that caches each node's
//!   neighbor-category histogram and cut row across replications.

use cgte_graph::{CategoryId, CategoryMatrix, Graph, NodeId, Partition};
use std::collections::HashMap;

fn categories_of(p: &Partition, nodes: &[NodeId]) -> Vec<CategoryId> {
    nodes.iter().map(|&v| p.category_of(v)).collect()
}

fn degrees_of(g: &Graph, nodes: &[NodeId]) -> Vec<u32> {
    nodes.iter().map(|&v| g.degree(v) as u32).collect()
}

/// An induced-subgraph observation (§3.2.1, Fig. 2(a)): for each sampled
/// node its category, degree and design weight, plus every edge *between
/// sampled nodes* — and nothing about unsampled nodes.
///
/// The sample is a multiset: the same node may appear at several indices,
/// and edges between repeated nodes are recorded once per index pair,
/// matching the multiplicity semantics of Eq. (8).
#[derive(Debug, Clone, PartialEq)]
pub struct InducedSample {
    nodes: Vec<NodeId>,
    categories: Vec<CategoryId>,
    degrees: Vec<u32>,
    weights: Vec<f64>,
    /// Sample-index pairs `(i, j)`, `i < j`, whose nodes are adjacent in G.
    edges: Vec<(u32, u32)>,
    num_categories: usize,
}

impl InducedSample {
    /// Observes `nodes` under a uniform design (all weights 1).
    pub fn observe(g: &Graph, p: &Partition, nodes: &[NodeId]) -> Self {
        Self::observe_with_weights(g, p, nodes, vec![1.0; nodes.len()])
    }

    /// Observes `nodes` with explicit design weights `w(v)` per sample.
    ///
    /// # Panics
    /// Panics if `weights.len() != nodes.len()`, if the partition does not
    /// cover the graph, or if a weight is non-positive or non-finite.
    pub fn observe_with_weights(
        g: &Graph,
        p: &Partition,
        nodes: &[NodeId],
        weights: Vec<f64>,
    ) -> Self {
        assert_eq!(weights.len(), nodes.len(), "one weight per sample");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "sampled nodes must have positive finite design weights"
        );
        p.check_covers(g).expect("partition must cover graph");
        // Index the sample multiset by node.
        let mut at: HashMap<NodeId, Vec<u32>> = HashMap::new();
        for (i, &v) in nodes.iter().enumerate() {
            at.entry(v).or_default().push(i as u32);
        }
        // Induced edges with multiset multiplicity: iterate each distinct
        // sampled node's adjacency once (O(Σ deg) total).
        let mut edges = Vec::new();
        for (&u, iu) in &at {
            for &v in g.neighbors(u) {
                if v <= u {
                    continue; // count each unordered node pair once
                }
                if let Some(iv) = at.get(&v) {
                    for &i in iu {
                        for &j in iv {
                            edges.push(if i < j { (i, j) } else { (j, i) });
                        }
                    }
                }
            }
        }
        edges.sort_unstable();
        InducedSample {
            categories: categories_of(p, nodes),
            degrees: degrees_of(g, nodes),
            nodes: nodes.to_vec(),
            weights,
            edges,
            num_categories: p.num_categories(),
        }
    }

    /// Number of samples `n = |S|` (with multiplicity).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of categories of the underlying partition.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// Sampled node ids, in draw order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Category of each sample.
    pub fn categories(&self) -> &[CategoryId] {
        &self.categories
    }

    /// Degree of each sample (known to a crawler from the friend list).
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Design weight of each sample.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Observed edges as sample-index pairs `(i, j)`, `i < j`.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Re-observes a bootstrap replicate: `indices` select samples (with
    /// repetition allowed); induced edges are re-derived from the recorded
    /// ones without touching the graph.
    pub fn subsample(&self, indices: &[u32]) -> InducedSample {
        let mut new_at: HashMap<u32, Vec<u32>> = HashMap::new();
        for (new_i, &old_i) in indices.iter().enumerate() {
            new_at.entry(old_i).or_default().push(new_i as u32);
        }
        let mut edges = Vec::new();
        for &(a, b) in &self.edges {
            if let (Some(ia), Some(ib)) = (new_at.get(&a), new_at.get(&b)) {
                for &i in ia {
                    for &j in ib {
                        edges.push(if i < j { (i, j) } else { (j, i) });
                    }
                }
            }
        }
        edges.sort_unstable();
        InducedSample {
            nodes: indices.iter().map(|&i| self.nodes[i as usize]).collect(),
            categories: indices
                .iter()
                .map(|&i| self.categories[i as usize])
                .collect(),
            degrees: indices.iter().map(|&i| self.degrees[i as usize]).collect(),
            weights: indices.iter().map(|&i| self.weights[i as usize]).collect(),
            edges,
            num_categories: self.num_categories,
        }
    }
}

/// A (labeled) star observation (§3.2.2, Fig. 2(b)): everything in
/// [`InducedSample`] *plus*, for each sampled node, the categories of all
/// its neighbors — but not the neighbors' degrees, friend lists, or ties
/// among them (this is *not* egonet sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct StarSample {
    nodes: Vec<NodeId>,
    categories: Vec<CategoryId>,
    degrees: Vec<u32>,
    weights: Vec<f64>,
    /// Per sample: sparse neighbor-category histogram, sorted by category.
    neighbor_cats: Vec<Vec<(CategoryId, u32)>>,
    num_categories: usize,
}

impl StarSample {
    /// Observes `nodes` under a uniform design (all weights 1).
    pub fn observe(g: &Graph, p: &Partition, nodes: &[NodeId]) -> Self {
        Self::observe_with_weights(g, p, nodes, vec![1.0; nodes.len()])
    }

    /// Observes `nodes` with explicit design weights.
    ///
    /// # Panics
    /// Same contract as [`InducedSample::observe_with_weights`].
    pub fn observe_with_weights(
        g: &Graph,
        p: &Partition,
        nodes: &[NodeId],
        weights: Vec<f64>,
    ) -> Self {
        assert_eq!(weights.len(), nodes.len(), "one weight per sample");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "sampled nodes must have positive finite design weights"
        );
        p.check_covers(g).expect("partition must cover graph");
        // Histogram neighbors per *distinct* node once, then share. A dense
        // per-category scratch (reset via the touched list) replaces the
        // per-node hash maps this hot path used to allocate.
        let mut cache: HashMap<NodeId, usize> = HashMap::new();
        let mut arena: Vec<Vec<(CategoryId, u32)>> = Vec::new();
        let mut scratch = HistogramScratch::new(p.num_categories());
        for &v in nodes {
            if let std::collections::hash_map::Entry::Vacant(e) = cache.entry(v) {
                e.insert(arena.len());
                let mut hist = Vec::new();
                scratch.append_row(g, p, v, &mut hist);
                arena.push(hist);
            }
        }
        let neighbor_cats: Vec<Vec<(CategoryId, u32)>> =
            nodes.iter().map(|v| arena[cache[v]].clone()).collect();
        StarSample {
            categories: categories_of(p, nodes),
            degrees: degrees_of(g, nodes),
            nodes: nodes.to_vec(),
            weights,
            neighbor_cats,
            num_categories: p.num_categories(),
        }
    }

    /// Number of samples `n = |S|` (with multiplicity).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of categories of the underlying partition.
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// Sampled node ids, in draw order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Category of each sample.
    pub fn categories(&self) -> &[CategoryId] {
        &self.categories
    }

    /// Degree of each sample.
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Design weight of each sample.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Sparse neighbor-category histogram of sample `i`.
    pub fn neighbor_categories(&self, i: usize) -> &[(CategoryId, u32)] {
        &self.neighbor_cats[i]
    }

    /// Number of neighbors of sample `i` in category `c` — the paper's
    /// `|E_{s,C}|`, the size of the edge-cut between node `s` and
    /// category `c`.
    pub fn neighbors_in(&self, i: usize, c: CategoryId) -> u32 {
        self.neighbor_cats[i]
            .binary_search_by_key(&c, |&(cat, _)| cat)
            .map(|pos| self.neighbor_cats[i][pos].1)
            .unwrap_or(0)
    }

    /// Bootstrap replicate: select samples by index (repetition allowed).
    pub fn subsample(&self, indices: &[u32]) -> StarSample {
        StarSample {
            nodes: indices.iter().map(|&i| self.nodes[i as usize]).collect(),
            categories: indices
                .iter()
                .map(|&i| self.categories[i as usize])
                .collect(),
            degrees: indices.iter().map(|&i| self.degrees[i as usize]).collect(),
            weights: indices.iter().map(|&i| self.weights[i as usize]).collect(),
            neighbor_cats: indices
                .iter()
                .map(|&i| self.neighbor_cats[i as usize].clone())
                .collect(),
            num_categories: self.num_categories,
        }
    }

    /// Forgets the star information, yielding the induced-subgraph view of
    /// the same draw — the paper's §7.1 trick for comparing designs on the
    /// same data ("by discarding the information about v's \[neighbors\]").
    ///
    /// Requires the graph to re-derive induced edges (the star structure
    /// does not store neighbor identities, only their categories).
    pub fn to_induced(&self, g: &Graph, p: &Partition) -> InducedSample {
        InducedSample::observe_with_weights(g, p, &self.nodes, self.weights.clone())
    }
}

/// Dense scratch for building sparse neighbor-category histograms without
/// per-node allocations: a `C`-sized count array reset through a touched
/// list, so each histogram costs `O(deg + t log t)` with `t` distinct
/// neighbor categories.
struct HistogramScratch {
    counts: Vec<u32>,
    touched: Vec<CategoryId>,
}

impl HistogramScratch {
    fn new(num_categories: usize) -> Self {
        HistogramScratch {
            counts: vec![0; num_categories],
            touched: Vec::new(),
        }
    }

    /// Appends the sorted sparse histogram of `v`'s neighbor categories to
    /// `hist`.
    fn append_row(
        &mut self,
        g: &Graph,
        p: &Partition,
        v: NodeId,
        hist: &mut Vec<(CategoryId, u32)>,
    ) {
        for &u in g.neighbors(v) {
            let c = p.category_of(u);
            if self.counts[c as usize] == 0 {
                self.touched.push(c);
            }
            self.counts[c as usize] += 1;
        }
        self.touched.sort_unstable();
        hist.extend(self.touched.iter().map(|&c| (c, self.counts[c as usize])));
        for &c in &self.touched {
            self.counts[c as usize] = 0;
        }
        self.touched.clear();
    }
}

/// The owned, shareable half of an [`ObservationContext`]: every node's
/// sorted neighbor-category histogram and its *cut row*, in two CSR
/// arenas.
///
/// A node's cut row lists its neighbors in another category — the ids
/// behind the paper's edge cuts `|E_{v,B}|`, `B` not `v`'s category —
/// grouped by category: groups in ascending category order, ids ascending
/// inside each group (a stable partition of the adjacency row). Group
/// `B`'s length is `v`'s histogram count for `B`, so the histogram
/// delimits the groups and the layout stores no extra bytes. The cut row is
/// all the induced push reads (Eq. (8)/(15) count only edges between
/// different categories), and it is symmetric: `u ∈ cut(v) ⇔ v ∈ cut(u)`.
/// On a homophilous partition most rows are empty.
///
/// Built once in `O(E + N)`: one scan per node fills its histogram, and a
/// node with a cut scans its row again to place each cut neighbor in its
/// group.
/// Long-lived consumers (the `cgte-serve` estimation service) build one
/// index per (graph, partition), keep it in an `Arc`, and stamp out cheap
/// [`ObservationContext::with_index`] views per request — the index has no
/// borrow of the graph, so it composes with `Arc`-held graphs where the
/// borrowing context cannot.
///
/// Memory is 8 bytes per node for a pair of `u32` row offsets, one into
/// each arena, 8 bytes per distinct (node, neighbor category) entry and 4
/// bytes per cut-row entry. Both arenas are therefore limited to
/// `u32::MAX` entries, which [`NeighborCategoryIndex::build_range`] and
/// [`NeighborCategoryIndex::merge`] check.
///
/// Indexes over *disjoint node ranges* of the same graph can be
/// [`NeighborCategoryIndex::merge`]d: `build_range(0..k) ⊕ build_range(k..n)`
/// is bit-identical to `build_range(0..n)` (counts and ids are exact
/// integers), so construction parallelizes over node chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborCategoryIndex {
    num_categories: usize,
    /// First node id covered (`build` starts at 0).
    start: NodeId,
    /// Row `i = v - start` spans `offsets[i].0..offsets[i + 1].0` of
    /// `entries` and `offsets[i].1..offsets[i + 1].1` of `cut`; one load
    /// fetches both starts.
    offsets: Vec<(u32, u32)>,
    /// Concatenated sorted `(category, count)` histograms.
    entries: Vec<(CategoryId, u32)>,
    /// Concatenated cut rows, each grouped by ascending category.
    cut: Vec<NodeId>,
}

const ARENA_OVERFLOW: &str = "neighbor-category index exceeds u32 offsets";

/// `len` as an arena offset.
///
/// # Panics
/// Panics if `len` exceeds the `u32` offsets of a [`NeighborCategoryIndex`].
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect(ARENA_OVERFLOW)
}

/// `o` moved past `base` earlier arena entries.
///
/// # Panics
/// Panics if the sum exceeds the `u32` offsets of a
/// [`NeighborCategoryIndex`].
fn shift(base: u32, o: u32) -> u32 {
    base.checked_add(o).expect(ARENA_OVERFLOW)
}

impl NeighborCategoryIndex {
    /// Precomputes the neighbor-category histogram and cut row of every
    /// node.
    ///
    /// # Panics
    /// Panics if the partition does not cover the graph, or an arena
    /// exceeds `u32` offsets.
    pub fn build(g: &Graph, p: &Partition) -> Self {
        Self::build_range(g, p, 0, g.num_nodes() as NodeId)
    }

    /// Precomputes the rows of nodes `lo..hi` only — one shard of a
    /// chunked parallel build, recombined with
    /// [`NeighborCategoryIndex::merge`].
    ///
    /// # Panics
    /// Panics if the partition does not cover the graph or `lo > hi` or
    /// `hi` exceeds the node count, or an arena exceeds `u32` offsets.
    pub fn build_range(g: &Graph, p: &Partition, lo: NodeId, hi: NodeId) -> Self {
        p.check_covers(g).expect("partition must cover graph");
        assert!(
            lo <= hi && hi as usize <= g.num_nodes(),
            "node range {lo}..{hi} out of bounds"
        );
        let mut offsets = Vec::with_capacity((hi - lo) as usize + 1);
        offsets.push((0, 0));
        let mut entries = Vec::new();
        let mut cut = Vec::new();
        let mut scratch = HistogramScratch::new(p.num_categories());
        // The next free cut position of each other category's group.
        let mut next = vec![0usize; p.num_categories()];
        for v in lo..hi {
            let cv = p.category_of(v);
            let hist = entries.len();
            scratch.append_row(g, p, v, &mut entries);
            let start = cut.len();
            let mut end = start;
            for &(b, count) in &entries[hist..] {
                if b != cv {
                    next[b as usize] = end;
                    end += count as usize;
                }
            }
            // Only a row with a cut is scanned again.
            if end > start {
                cut.resize(end, 0);
                for &u in g.neighbors(v) {
                    let b = p.category_of(u) as usize;
                    if b != cv as usize {
                        cut[next[b]] = u;
                        next[b] += 1;
                    }
                }
            }
            offsets.push((arena_offset(entries.len()), arena_offset(cut.len())));
        }
        NeighborCategoryIndex {
            num_categories: p.num_categories(),
            start: lo,
            offsets,
            entries,
            cut,
        }
    }

    /// Appends `other`, which must cover the node range starting exactly
    /// where this one ends. Purely integral data, so a chunked build
    /// merged in order is bit-identical to a monolithic one.
    ///
    /// # Panics
    /// Panics if the ranges are not adjacent, the category counts differ,
    /// or a merged arena exceeds `u32` offsets.
    pub fn merge(&mut self, other: &NeighborCategoryIndex) {
        assert_eq!(
            self.num_categories, other.num_categories,
            "index category mismatch"
        );
        assert_eq!(
            self.end(),
            other.start,
            "merged index ranges must be adjacent"
        );
        let (entries, cut) = (
            arena_offset(self.entries.len()),
            arena_offset(self.cut.len()),
        );
        self.entries.extend_from_slice(&other.entries);
        self.cut.extend_from_slice(&other.cut);
        self.offsets.extend(
            other.offsets[1..]
                .iter()
                .map(|&(e, c)| (shift(entries, e), shift(cut, c))),
        );
    }

    /// First node id covered.
    #[inline]
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// One past the last node id covered.
    #[inline]
    pub fn end(&self) -> NodeId {
        self.start + (self.offsets.len() - 1) as NodeId
    }

    /// Number of categories of the partition this index was built from.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// The sorted neighbor-category histogram of `v`.
    ///
    /// # Panics
    /// Panics if `v` is outside the covered range.
    #[inline]
    pub fn neighbor_categories(&self, v: NodeId) -> &[(CategoryId, u32)] {
        let i = (v - self.start) as usize;
        &self.entries[self.offsets[i].0 as usize..self.offsets[i + 1].0 as usize]
    }

    /// The cut row of `v`: its neighbors in another category (with
    /// multiplicity, as in the adjacency row), grouped by ascending
    /// category and ascending inside each group. The group of category `B`
    /// is as long as `v`'s [`NeighborCategoryIndex::neighbor_categories`]
    /// count for `B`.
    ///
    /// # Panics
    /// Panics if `v` is outside the covered range.
    #[inline]
    pub fn cut_neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = (v - self.start) as usize;
        &self.cut[self.offsets[i].1 as usize..self.offsets[i + 1].1 as usize]
    }
}

/// How an [`ObservationContext`] holds its index: built-and-owned (the
/// classic one-shot path) or borrowed from a caller who shares it.
enum IndexRef<'a> {
    Owned(NeighborCategoryIndex),
    Borrowed(&'a NeighborCategoryIndex),
}

/// Immutable per-(graph, partition) observation support: the graph, the
/// partition, and a [`NeighborCategoryIndex`] of every node.
///
/// Built once and shared read-only across replications and worker
/// threads — the graph and partition never change during an experiment,
/// so there is no reason to re-histogram a node's neighborhood per
/// prefix, per replication, or per thread. Services that keep graphs
/// alive across many sessions build the index once and borrow it via
/// [`ObservationContext::with_index`].
pub struct ObservationContext<'a> {
    g: &'a Graph,
    p: &'a Partition,
    index: IndexRef<'a>,
}

impl<'a> ObservationContext<'a> {
    /// Precomputes the neighbor-category histogram and cut row of every
    /// node.
    ///
    /// # Panics
    /// Panics if the partition does not cover the graph.
    pub fn new(g: &'a Graph, p: &'a Partition) -> Self {
        let index = NeighborCategoryIndex::build(g, p);
        ObservationContext {
            g,
            p,
            index: IndexRef::Owned(index),
        }
    }

    /// A context over a prebuilt full-graph index — `O(1)`, so callers
    /// that cache the index per (graph, partition) can stamp out a view
    /// per request.
    ///
    /// # Panics
    /// Panics if the index does not cover all of `g`'s nodes, or its
    /// category count differs from the partition's.
    pub fn with_index(g: &'a Graph, p: &'a Partition, index: &'a NeighborCategoryIndex) -> Self {
        assert_eq!(
            index.num_categories(),
            p.num_categories(),
            "index/partition category mismatch"
        );
        assert!(
            index.start() == 0 && index.end() as usize == g.num_nodes(),
            "index must cover the whole graph"
        );
        ObservationContext {
            g,
            p,
            index: IndexRef::Borrowed(index),
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.g
    }

    /// The underlying partition.
    #[inline]
    pub fn partition(&self) -> &Partition {
        self.p
    }

    /// Number of categories of the partition.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.p.num_categories()
    }

    /// The cached sorted neighbor-category histogram of `v` — the paper's
    /// per-node edge cuts `|E_{v,C}|` for every category `C`.
    #[inline]
    pub fn neighbor_categories(&self, v: NodeId) -> &[(CategoryId, u32)] {
        self.index().neighbor_categories(v)
    }

    /// The cached cut row of `v`: its neighbors in another category,
    /// grouped by ascending category as
    /// [`NeighborCategoryIndex::cut_neighbors`] describes — the ids behind
    /// the edge cuts `|E_{v,B}|`.
    #[inline]
    pub fn cut_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.index().cut_neighbors(v)
    }

    /// The index, owned or borrowed.
    #[inline]
    fn index(&self) -> &NeighborCategoryIndex {
        match &self.index {
            IndexRef::Owned(idx) => idx,
            IndexRef::Borrowed(idx) => idx,
        }
    }
}

/// Incremental star-observation statistics (§3.2.2) for growing prefixes.
///
/// Each [`StarAccumulator::push`] folds one sampled node into every running
/// sum the star estimators need — in the *same order and with the same
/// floating-point expressions* as a from-scratch
/// [`StarSample`]-then-estimate pass over the prefix, so snapshots are
/// bit-identical to re-observation (property-tested in cgte-core's
/// estimator suites and, via the merge law, in `tests/merge_law.rs`).
///
/// A prefix experiment over sizes `s_1 < … < s_k` therefore costs
/// `O(s_k · deg)` pushes plus `k` snapshots of `O(C²)` each, instead of
/// `O(Σ s_i · deg)` re-observation work.
///
/// This accumulator holds a stream's one `(node, weight)` push log
/// ([`StarAccumulator::log`]). [`ObservationStream::merge`] replays another
/// stream's log through the same `push` path, so
/// `observe(a); merge(observe(b)) ≡ observe(a ++ b)` holds **bit-exactly**
/// (same operations in the same order — property-tested in
/// `tests/merge_law.rs`). Sharded ingestion (per-thread or per-crawler
/// partial observations) therefore composes into exactly the state a
/// single sequential observer would have reached.
///
/// [`ObservationStream::merge`]: crate::ObservationStream::merge
#[derive(Debug, Clone, PartialEq)]
pub struct StarAccumulator {
    num_categories: usize,
    len: usize,
    /// The pushed nodes, in order — with `log_weights`, the stream's one
    /// push log, kept as two columns (12 bytes per sample, not a padded
    /// 16-byte pair).
    log_nodes: Vec<NodeId>,
    /// The pushed design weights, parallel to `log_nodes`.
    log_weights: Vec<f64>,
    /// `Σ_s |E_{s,c}| / w(s)` per category — the Eq. (7)/(13) numerators.
    nbr_mass: Vec<f64>,
    /// `Σ_s deg(s) / w(s)`.
    deg_mass: f64,
    /// `w⁻¹(S) = Σ_s 1/w(s)`.
    inv_mass: f64,
    /// `w⁻¹(S_c)` per category.
    inv_mass_in: Vec<f64>,
    /// `Σ_{s ∈ S_c} deg(s) / w(s)` per category.
    deg_mass_in: Vec<f64>,
    /// Eq. (9)/(16) numerators per unordered category pair.
    weight_num: CategoryMatrix,
}

impl StarAccumulator {
    /// An empty accumulator over `num_categories` categories.
    pub fn new(num_categories: usize) -> Self {
        StarAccumulator {
            num_categories,
            len: 0,
            log_nodes: Vec::new(),
            log_weights: Vec::new(),
            nbr_mass: vec![0.0; num_categories],
            deg_mass: 0.0,
            inv_mass: 0.0,
            inv_mass_in: vec![0.0; num_categories],
            deg_mass_in: vec![0.0; num_categories],
            weight_num: CategoryMatrix::zeros(num_categories),
        }
    }

    /// Clears all sums, keeping allocations (per-thread scratch reuse).
    pub fn reset(&mut self) {
        self.len = 0;
        self.log_nodes.clear();
        self.log_weights.clear();
        self.nbr_mass.fill(0.0);
        self.deg_mass = 0.0;
        self.inv_mass = 0.0;
        self.inv_mass_in.fill(0.0);
        self.deg_mass_in.fill(0.0);
        self.weight_num.reset();
    }

    /// Heap bytes held: the log and the `O(C²)` sums.
    pub fn heap_bytes(&self) -> usize {
        let f64s =
            self.nbr_mass.capacity() + self.inv_mass_in.capacity() + self.deg_mass_in.capacity();
        self.log_nodes.capacity() * std::mem::size_of::<NodeId>()
            + (self.log_weights.capacity() + f64s) * std::mem::size_of::<f64>()
            + self.weight_num.heap_bytes()
    }

    /// Reserves log space for `additional` more pushes.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.log_nodes.reserve(additional);
        self.log_weights.reserve(additional);
    }

    /// The pushed nodes and their design weights, in order, as two
    /// parallel slices. This is what [`ObservationStream::merge`] replays,
    /// what snapshots persist, and what consumers needing a materialized
    /// observation (bootstrap resampling) re-observe from.
    ///
    /// [`ObservationStream::merge`]: crate::ObservationStream::merge
    #[inline]
    pub fn log(&self) -> (&[NodeId], &[f64]) {
        (&self.log_nodes, &self.log_weights)
    }

    /// Folds one sampled node with design weight `w` into the statistics.
    ///
    /// # Panics
    /// Panics if `w` is not positive and finite, or if the context's
    /// category count differs from the accumulator's.
    pub fn push(&mut self, ctx: &ObservationContext<'_>, v: NodeId, w: f64) {
        assert!(
            w.is_finite() && w > 0.0,
            "design weight must be positive and finite"
        );
        assert_eq!(
            ctx.num_categories(),
            self.num_categories,
            "context/category mismatch"
        );
        let c = ctx.partition().category_of(v);
        let d = ctx.graph().degree(v) as f64;
        for &(cat, cnt) in ctx.neighbor_categories(v) {
            let x = cnt as f64 / w;
            self.nbr_mass[cat as usize] += x;
            if cat != c {
                self.weight_num.add(c, cat, x);
            }
        }
        self.deg_mass += d / w;
        self.inv_mass += 1.0 / w;
        self.inv_mass_in[c as usize] += 1.0 / w;
        self.deg_mass_in[c as usize] += d / w;
        self.log_nodes.push(v);
        self.log_weights.push(w);
        self.len += 1;
    }

    /// Number of pushed samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples were pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of categories.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// `Σ_s |E_{s,c}| / w(s)` per category.
    #[inline]
    pub fn neighbor_mass(&self) -> &[f64] {
        &self.nbr_mass
    }

    /// `Σ_s deg(s) / w(s)`.
    #[inline]
    pub fn degree_mass(&self) -> f64 {
        self.deg_mass
    }

    /// `w⁻¹(S)`.
    #[inline]
    pub fn inverse_mass(&self) -> f64 {
        self.inv_mass
    }

    /// `w⁻¹(S_c)` per category.
    #[inline]
    pub fn inverse_mass_in(&self) -> &[f64] {
        &self.inv_mass_in
    }

    /// `Σ_{s ∈ S_c} deg(s) / w(s)` per category.
    #[inline]
    pub fn degree_mass_in(&self) -> &[f64] {
        &self.deg_mass_in
    }

    /// Eq. (9)/(16) weight-estimator numerators per unordered pair.
    #[inline]
    pub fn weight_numerators(&self) -> &CategoryMatrix {
        &self.weight_num
    }
}

/// Incremental induced-subgraph statistics (§3.2.1) for growing prefixes.
///
/// [`InducedAccumulator::push`] costs `O(|cut(v)|)` plus one matrix cell
/// per neighbor category: it walks the node's cut row
/// ([`ObservationContext::cut_neighbors`], its neighbors in another
/// category, grouped by category) and folds each pair's reweighted
/// contribution into the Eq. (8)/(15) numerator matrix. Same-category
/// neighbors add nothing to those numerators, so they are never looked up.
/// The per-node running mass `Σ 1/w` over earlier occurrences makes the
/// cost independent of how often a walk revisits nodes. Snapshots are
/// bit-identical to a from-scratch [`InducedSample`]-then-estimate pass
/// (see `induced_weights_all`, which replays the same summation order).
///
/// This accumulator keeps no log: [`ObservationStream::merge`] replays the
/// stream's one log ([`StarAccumulator::log`]) through both accumulators.
/// For the induced scenario replay is not merely an FP-exactness trick but
/// semantically required — an edge between a node in shard `a` and a node
/// in shard `b` is visible to neither shard alone, and only re-pushing
/// `b`'s samples against `a`'s per-node masses recovers the cross-shard
/// pair contributions of `observe(a ++ b)`.
///
/// **Membership rule.** Only a pushed node with a non-empty cut row
/// becomes a *member*. Cut rows are symmetric (`u ∈ cut(v) ⇔ v ∈ cut(u)`),
/// so no scan ever reaches a node whose row is empty, and such a node
/// needs no running mass. A stream that samples only such nodes — a walk
/// inside one category — holds no directory and no mass block at all.
///
/// **Mass blocks.** Running masses live in 64-slot `f64` blocks, one per
/// 64-node word of ids that holds a member, behind a directory of one
/// `u32` block offset per word. Block 0 is shared by every word without a
/// member and stays all zero, so a cut neighbor's mass is one
/// unconditional load, `mass[block[u / 64] + u % 64]`, that reads `0` for
/// a non-member: there is no membership test, no rank and no hash on the
/// push path, and a client's choice of node ids cannot build probe chains.
/// Each category group of the cut row is summed in a register that starts
/// from its `(c(v), B)` cell and is stored once; a non-member's term is
/// forced to exactly `+0.0` (a bare `w⁻¹ · 0` is NaN when `1/w` overflows
/// to `+∞`), which leaves a cell that is `≥ +0.0` unchanged. Every cell
/// therefore receives the same IEEE adds in the same order as one add per
/// member.
///
/// Memory is 4 bytes per 64 nodes for the directory plus 512 bytes per
/// word that holds a member, plus the zero block and 4 bytes per such word
/// in the touched list: on the serve workload's 1M-node headline graph
/// (22 boundary nodes) about 74 KB, on a large graph whose partition is
/// not homophilous up to 8 bytes per node. The directory is sized from the
/// context's graph when the first member arrives and grows if the
/// accumulator is later pushed against a larger graph; both it and the
/// block arena grow exactly, never past what they hold.
/// [`InducedAccumulator::reset`] walks the list of words that got a block
/// and points them back at the zero block, in `O(touched words)` rather
/// than `O(n/64)`, so scratch reuse across replications stays independent
/// of graph size.
///
/// [`ObservationStream::merge`]: crate::ObservationStream::merge
#[derive(Debug, Clone)]
pub struct InducedAccumulator {
    num_categories: usize,
    len: usize,
    /// `w⁻¹(S_c)` per category — Eq. (4)/(11) numerators.
    per_cat_mass: Vec<f64>,
    /// `w⁻¹(S)`.
    inv_mass: f64,
    /// The offset in `mass` of each 64-node word's block; `0`, the shared
    /// zero block, for a word without a member.
    block: Vec<u32>,
    /// The index of every word that holds a member, in the order the words
    /// got their blocks — block `k + 1` belongs to `touched[k]`; what
    /// `reset` clears.
    touched: Vec<u32>,
    /// Running `Σ 1/w` over the occurrences of each member, by node id in
    /// 64-slot blocks; the first block is all zero. Empty until the first
    /// member arrives.
    mass: Vec<f64>,
    /// Eq. (8)/(15) numerators per unordered category pair.
    weight_num: CategoryMatrix,
}

/// Equality of the estimator state only: the directory and the mass
/// blocks are functions of the pushed sequence, and their layout depends
/// on which graphs the accumulator has seen, so a fresh accumulator equals
/// a reset one.
impl PartialEq for InducedAccumulator {
    fn eq(&self, other: &Self) -> bool {
        self.num_categories == other.num_categories
            && self.len == other.len
            && self.per_cat_mass == other.per_cat_mass
            && self.inv_mass == other.inv_mass
            && self.weight_num == other.weight_num
    }
}

impl InducedAccumulator {
    /// An empty accumulator over `num_categories` categories.
    pub fn new(num_categories: usize) -> Self {
        InducedAccumulator {
            num_categories,
            len: 0,
            per_cat_mass: vec![0.0; num_categories],
            inv_mass: 0.0,
            block: Vec::new(),
            touched: Vec::new(),
            mass: Vec::new(),
            weight_num: CategoryMatrix::zeros(num_categories),
        }
    }

    /// Clears all sums, keeping allocations. Walks the touched words to
    /// point only the words that hold a member back at the zero block:
    /// `O(touched words)`, not `O(n/64)`.
    pub fn reset(&mut self) {
        for &i in &self.touched {
            self.block[i as usize] = 0;
        }
        self.touched.clear();
        self.mass.truncate(64);
        self.len = 0;
        self.per_cat_mass.fill(0.0);
        self.inv_mass = 0.0;
        self.weight_num.reset();
    }

    /// Heap bytes held: the block directory with its touched-word list, the
    /// mass blocks, and the `O(C²)` sums. The first three stay empty until
    /// a pushed node has a non-empty cut row.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.block.capacity() + self.touched.capacity()) * size_of::<u32>()
            + (self.mass.capacity() + self.per_cat_mass.capacity()) * size_of::<f64>()
            + self.weight_num.heap_bytes()
    }

    /// Folds one sampled node with design weight `w` into the statistics.
    ///
    /// # Panics
    /// Panics if `w` is not positive and finite, or if the context's
    /// category count differs from the accumulator's.
    pub fn push(&mut self, ctx: &ObservationContext<'_>, v: NodeId, w: f64) {
        assert!(
            w.is_finite() && w > 0.0,
            "design weight must be positive and finite"
        );
        assert_eq!(
            ctx.num_categories(),
            self.num_categories,
            "context/category mismatch"
        );
        let c = ctx.partition().category_of(v);
        let w_inv = 1.0 / w;
        let cut = ctx.cut_neighbors(v);
        // A node with an empty cut row is in no other node's cut row, so
        // no scan can reach it: it gets no mass block.
        if !cut.is_empty() {
            let words = ctx.graph().num_nodes().div_ceil(64);
            if self.block.len() < words {
                self.block.reserve_exact(words - self.block.len());
                self.block.resize(words, 0);
            }
            if self.mass.is_empty() {
                self.mass.reserve_exact(64);
                self.mass.resize(64, 0.0);
            }
            // The cut row's groups follow the histogram's other categories
            // in order. Inside a group ids ascend, and the running mass of
            // each adjacent sampled node aggregates all its earlier
            // occurrences, matching the grouped summation order of the
            // from-scratch `induced_weights_all` exactly.
            let (block, mass) = (&self.block[..], &self.mass[..]);
            let mut rest = cut;
            for &(b, count) in ctx.neighbor_categories(v) {
                if b == c {
                    continue;
                }
                let (group, tail) = rest.split_at(count as usize);
                rest = tail;
                let cell = self.weight_num.get_mut(c, b);
                let mut sum = *cell;
                for &u in group {
                    let m = mass[block[u as usize / 64] as usize + u as usize % 64];
                    // A non-member reads 0 and adds exactly +0.0; `w_inv * m`
                    // alone would be NaN for a `w_inv` of +∞.
                    sum += if m == 0.0 { 0.0 } else { w_inv * m };
                }
                *cell = sum;
            }
            let i = v as usize / 64;
            if self.block[i] == 0 {
                self.block[i] =
                    u32::try_from(self.mass.len()).expect("induced mass blocks exceed u32 offsets");
                self.mass.reserve_exact(64);
                self.mass.resize(self.mass.len() + 64, 0.0);
                self.touched.push(i as u32);
            }
            self.mass[self.block[i] as usize + v as usize % 64] += w_inv;
        }
        self.per_cat_mass[c as usize] += w_inv;
        self.inv_mass += w_inv;
        self.len += 1;
    }

    /// Number of pushed samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples were pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of categories.
    #[inline]
    pub fn num_categories(&self) -> usize {
        self.num_categories
    }

    /// `w⁻¹(S_c)` per category.
    #[inline]
    pub fn per_category_mass(&self) -> &[f64] {
        &self.per_cat_mass
    }

    /// `w⁻¹(S)`.
    #[inline]
    pub fn inverse_mass(&self) -> f64 {
        self.inv_mass
    }

    /// Eq. (8)/(15) weight-estimator numerators per unordered pair.
    #[inline]
    pub fn weight_numerators(&self) -> &CategoryMatrix {
        &self.weight_num
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::GraphBuilder;

    /// Two triangles joined by a bridge; categories = triangle membership.
    fn fixture() -> (Graph, Partition) {
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        (g, p)
    }

    #[test]
    fn induced_records_categories_degrees() {
        let (g, p) = fixture();
        let s = InducedSample::observe(&g, &p, &[0, 3, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.categories(), &[0, 1, 0]);
        assert_eq!(s.degrees(), &[2, 3, 3]);
        assert_eq!(s.weights(), &[1.0, 1.0, 1.0]);
        assert_eq!(s.num_categories(), 2);
    }

    #[test]
    fn induced_edges_only_among_sampled() {
        let (g, p) = fixture();
        // Nodes 0, 2 adjacent; 0, 3 not; 2, 3 adjacent (bridge).
        let s = InducedSample::observe(&g, &p, &[0, 3, 2]);
        assert_eq!(s.edges(), &[(0, 2), (1, 2)]);
    }

    #[test]
    fn induced_multiset_multiplicity() {
        let (g, p) = fixture();
        // Node 2 sampled twice, node 3 once: bridge edge counted twice.
        let s = InducedSample::observe(&g, &p, &[2, 2, 3]);
        assert_eq!(s.edges(), &[(0, 2), (1, 2)]);
        // Same node repeated is never an edge (no self-loops).
        let s = InducedSample::observe(&g, &p, &[2, 2]);
        assert!(s.edges().is_empty());
    }

    #[test]
    fn induced_empty_sample() {
        let (g, p) = fixture();
        let s = InducedSample::observe(&g, &p, &[]);
        assert!(s.is_empty());
        assert!(s.edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn induced_rejects_zero_weight() {
        let (g, p) = fixture();
        let _ = InducedSample::observe_with_weights(&g, &p, &[0], vec![0.0]);
    }

    #[test]
    fn star_neighbor_histograms() {
        let (g, p) = fixture();
        let s = StarSample::observe(&g, &p, &[2, 4]);
        // Node 2: neighbors 0, 1 (cat 0) and 3 (cat 1).
        assert_eq!(s.neighbors_in(0, 0), 2);
        assert_eq!(s.neighbors_in(0, 1), 1);
        // Node 4: neighbors 3, 5, all cat 1.
        assert_eq!(s.neighbors_in(1, 0), 0);
        assert_eq!(s.neighbors_in(1, 1), 2);
        assert_eq!(s.neighbor_categories(0), &[(0, 2), (1, 1)]);
    }

    #[test]
    fn star_degree_equals_neighbor_total() {
        let (g, p) = fixture();
        let s = StarSample::observe(&g, &p, &[0, 1, 2, 3, 4, 5]);
        for i in 0..s.len() {
            let total: u32 = s.neighbor_categories(i).iter().map(|&(_, c)| c).sum();
            assert_eq!(total, s.degrees()[i], "sample {i}");
        }
    }

    #[test]
    fn star_to_induced_round_trip() {
        let (g, p) = fixture();
        let nodes = [0, 3, 2, 2];
        let star = StarSample::observe(&g, &p, &nodes);
        let induced = star.to_induced(&g, &p);
        let direct = InducedSample::observe(&g, &p, &nodes);
        assert_eq!(induced, direct);
    }

    #[test]
    fn induced_subsample_remaps_edges() {
        let (g, p) = fixture();
        let s = InducedSample::observe(&g, &p, &[0, 3, 2]); // edges (0,2),(1,2)
                                                            // Keep samples 2 and 0 (nodes 2 and 0, adjacent), in swapped order.
        let sub = s.subsample(&[2, 0]);
        assert_eq!(sub.nodes(), &[2, 0]);
        assert_eq!(sub.edges(), &[(0, 1)]);
        // Repeating an index duplicates its incident edges.
        let sub = s.subsample(&[2, 0, 0]);
        assert_eq!(sub.edges(), &[(0, 1), (0, 2)]);
    }

    #[test]
    fn star_subsample_preserves_records() {
        let (g, p) = fixture();
        let s = StarSample::observe(&g, &p, &[2, 4]);
        let sub = s.subsample(&[1, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.nodes(), &[4, 4]);
        assert_eq!(sub.neighbors_in(0, 1), 2);
    }

    #[test]
    fn context_histograms_match_star_sample() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let all: Vec<NodeId> = (0..6).collect();
        let s = StarSample::observe(&g, &p, &all);
        for (i, &v) in all.iter().enumerate() {
            assert_eq!(
                ctx.neighbor_categories(v),
                s.neighbor_categories(i),
                "node {v}"
            );
        }
    }

    #[test]
    fn star_accumulator_tracks_masses() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut acc = StarAccumulator::new(2);
        assert!(acc.is_empty());
        acc.push(&ctx, 2, 1.0); // deg 3, cat 0, sees 2 in cat 0 + 1 in cat 1
        acc.push(&ctx, 4, 2.0); // deg 2, cat 1, sees 2 in cat 1
        assert_eq!(acc.len(), 2);
        assert!((acc.degree_mass() - (3.0 + 1.0)).abs() < 1e-12);
        assert!((acc.inverse_mass() - 1.5).abs() < 1e-12);
        assert!((acc.neighbor_mass()[0] - 2.0).abs() < 1e-12);
        assert!((acc.neighbor_mass()[1] - 2.0).abs() < 1e-12);
        // Cross numerator: node 2 contributes |E_{2,1}|/w = 1.
        assert!((acc.weight_numerators().get(0, 1) - 1.0).abs() < 1e-12);
        acc.reset();
        assert!(acc.is_empty());
        assert_eq!(acc.degree_mass(), 0.0);
        assert!(acc.weight_numerators().is_zero());
    }

    #[test]
    fn induced_accumulator_counts_adjacent_pairs() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut acc = InducedAccumulator::new(2);
        // 2 and 3 are the bridge endpoints (cats 0 and 1).
        acc.push(&ctx, 2, 1.0);
        acc.push(&ctx, 3, 1.0);
        assert!((acc.weight_numerators().get(0, 1) - 1.0).abs() < 1e-12);
        assert_eq!(acc.per_category_mass(), &[1.0, 1.0]);
        // A repeated occurrence doubles the pair contributions.
        acc.push(&ctx, 2, 1.0);
        assert!((acc.weight_numerators().get(0, 1) - 2.0).abs() < 1e-12);
        assert!((acc.inverse_mass() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn induced_accumulator_ignores_intra_category_pairs() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut acc = InducedAccumulator::new(2);
        acc.push(&ctx, 0, 1.0);
        acc.push(&ctx, 1, 1.0); // adjacent, same category
        assert!(acc.weight_numerators().is_zero());
    }

    /// The three push orders of `tests/merge_law.rs`'s mass-block test,
    /// over 130 nodes (two full 64-node words and a partial one), cut at
    /// every prefix: the touched list names each word with a block once,
    /// in the order of the blocks, and `reset` points every word back at
    /// the zero block and leaves only that block, all zero.
    #[test]
    fn induced_reset_clears_every_touched_word() {
        let n: NodeId = 130;
        let (g, p) = ring(n);
        let ctx = ObservationContext::new(&g, &p);
        let mut acc = InducedAccumulator::new(3);
        for (order, nodes) in block_orders(n).iter().enumerate() {
            for cut in 0..=nodes.len() {
                for &v in &nodes[..cut] {
                    acc.push(&ctx, v, 1.0);
                }
                let mut touched = acc.touched.clone();
                touched.sort_unstable();
                let owned: Vec<u32> = (0..acc.block.len() as u32)
                    .filter(|&i| acc.block[i as usize] != 0)
                    .collect();
                assert_eq!(touched, owned, "order {order} cut {cut}");
                for (k, &i) in acc.touched.iter().enumerate() {
                    assert_eq!(acc.block[i as usize] as usize, 64 * (k + 1));
                }
                assert!(acc.mass[..64.min(acc.mass.len())].iter().all(|&m| m == 0.0));
                acc.reset();
                assert!(acc.block.iter().all(|&b| b == 0), "order {order} cut {cut}");
                assert!(acc.touched.is_empty(), "order {order} cut {cut}");
                assert!(acc.mass.len() <= 64 && acc.mass.iter().all(|&m| m == 0.0));
            }
        }
    }

    /// A ring over `n` nodes in three interleaved categories: every node's
    /// cut row holds both of its neighbors.
    fn ring(n: NodeId) -> (Graph, Partition) {
        let g = GraphBuilder::from_edges(n as usize, (0..n).map(|v| (v, (v + 1) % n))).unwrap();
        let p = Partition::from_assignments((0..n).map(|v| v % 3).collect(), 3).unwrap();
        (g, p)
    }

    /// Descending ids, 64-node words interleaved in a stride-37 bit
    /// order, and ascending ids each repeated with a random tail of
    /// revisits.
    fn block_orders(n: NodeId) -> [Vec<NodeId>; 3] {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        [
            (0..n).rev().collect(),
            (0..64)
                .flat_map(|k| (0..n.div_ceil(64)).map(move |w| w * 64 + (k * 37) % 64))
                .filter(|&v| v < n)
                .collect(),
            (0..n)
                .flat_map(|v| [v, v])
                .chain((0..n).map(|_| rng.gen_range(0..n)))
                .collect(),
        ]
    }

    /// The memory bound of the layout, at every prefix of every block
    /// order on 130- and 1000-node rings: the directory's 4 bytes per
    /// 64 nodes, 512 bytes per word that holds a member plus the zero
    /// block, the touched list and the `O(C²)` sums — nothing more.
    #[test]
    fn induced_heap_is_directory_plus_member_blocks() {
        for n in [130, 1000] {
            let (g, p) = ring(n);
            let ctx = ObservationContext::new(&g, &p);
            let sums = InducedAccumulator::new(3).heap_bytes();
            for (order, nodes) in block_orders(n).iter().enumerate() {
                let mut acc = InducedAccumulator::new(3);
                let mut words = std::collections::BTreeSet::new();
                for &v in nodes {
                    acc.push(&ctx, v, 1.0);
                    words.insert(v / 64);
                    let bound = 4 * (n as usize).div_ceil(64)
                        + 512 * (words.len() + 1)
                        + 4 * acc.touched.capacity()
                        + sums;
                    assert!(
                        acc.heap_bytes() <= bound,
                        "n {n} order {order}: {} > {bound}",
                        acc.heap_bytes()
                    );
                }
                assert_eq!(acc.touched.len(), words.len());
            }
        }
    }

    /// A non-member adds exactly `+0.0`, even when `1/w` overflows to
    /// `+∞`: on the path 0 – 1 – 2 with categories 0, 1, 0, node 1 pushed
    /// with the least subnormal weight scans member 0 (`∞ · 1`) and
    /// non-member 2, whose term must not turn the cell into `∞ · 0 = NaN`.
    #[test]
    fn induced_non_member_adds_exactly_zero() {
        let g = GraphBuilder::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let p = Partition::from_assignments(vec![0, 1, 0], 2).unwrap();
        let ctx = ObservationContext::new(&g, &p);
        let mut acc = InducedAccumulator::new(2);
        acc.push(&ctx, 0, 1.0);
        assert_eq!(
            acc.weight_numerators().get(0, 1).to_bits(),
            0.0f64.to_bits()
        );
        acc.push(&ctx, 1, f64::from_bits(1));
        assert_eq!(acc.weight_numerators().get(0, 1), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn accumulator_rejects_bad_weight() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut acc = StarAccumulator::new(2);
        acc.push(&ctx, 0, 0.0);
    }
}
