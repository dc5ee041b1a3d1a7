//! The graph registry: named `.cgteg` entries in the store directory
//! (`--cache-dir`), loaded lazily and shared across sessions.
//!
//! The directory is the same disk tier the scenario engine's
//! `ResourceCache` writes and `cgte ingest` targets — entries are listed
//! by file stem via `cgte_scenarios::cache::disk_entries` without loading
//! any CSR payload, and a graph is materialized (with **zero** graph
//! builds, ever — the server only loads) on the first session that opens
//! it. Each (graph, partition) pair lazily builds one shared
//! [`NeighborCategoryIndex`], the expensive half of an
//! [`ObservationContext`](cgte_sampling::ObservationContext), chunked
//! across the worker count and recombined through the index's bit-exact
//! `merge`.

use crate::ServeError;
use cgte_graph::store::{LoadedStore, Loader, Validate};
use cgte_graph::{Graph, NodeId, Partition};
use cgte_sampling::NeighborCategoryIndex;
use cgte_scenarios::cache::{disk_entries, DiskEntry};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A loaded graph with its named partitions and per-partition shared
/// neighbor-category indexes.
pub struct LoadedGraph {
    /// The registry name (file stem).
    pub name: String,
    /// The CSR graph.
    pub graph: Graph,
    /// Named partitions, in file order.
    pub partitions: Vec<(String, Partition)>,
    indexes: Vec<OnceLock<Arc<NeighborCategoryIndex>>>,
}

impl LoadedGraph {
    /// Index of the named partition.
    pub fn partition_idx(&self, name: &str) -> Option<usize> {
        self.partitions.iter().position(|(n, _)| n == name)
    }

    /// The shared neighbor-category index of partition `i`, building it on
    /// first use. The `O(E + N)` build is chunked over `threads` workers
    /// (node ranges, recombined with the index's bit-exact `merge`), so a
    /// million-node graph's first session pays the cost once and every
    /// later session gets an `Arc` clone.
    pub fn index(&self, i: usize, threads: usize) -> Arc<NeighborCategoryIndex> {
        Arc::clone(self.indexes[i].get_or_init(|| {
            let p = &self.partitions[i].1;
            Arc::new(build_index_parallel(&self.graph, p, threads))
        }))
    }
}

/// Builds a [`NeighborCategoryIndex`] over node-range chunks in parallel
/// and merges them in order — bit-identical to the serial build for every
/// thread count (integral data; asserted by the index's `merge` contract
/// and covered in the merge-law tests).
pub fn build_index_parallel(g: &Graph, p: &Partition, threads: usize) -> NeighborCategoryIndex {
    let n = g.num_nodes() as NodeId;
    let threads = threads.max(1).min(n.max(1) as usize);
    if threads == 1 || n == 0 {
        return NeighborCategoryIndex::build(g, p);
    }
    let chunk = n.div_ceil(threads as NodeId);
    let bounds: Vec<(NodeId, NodeId)> = (0..threads as NodeId)
        .map(|t| ((t * chunk).min(n), ((t + 1) * chunk).min(n)))
        .collect();
    let shards = crossbeam::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| scope.spawn(move |_| NeighborCategoryIndex::build_range(g, p, lo, hi)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("index shard builder panicked"))
            .collect::<Vec<_>>()
    })
    .expect("crossbeam scope failed");
    let mut iter = shards.into_iter();
    let mut index = iter.next().expect("at least one shard");
    for shard in iter {
        index.merge(&shard);
    }
    index
}

/// The named-graph registry over one store directory.
pub struct Registry {
    dir: PathBuf,
    mmap: bool,
    loaded: Mutex<HashMap<String, Arc<LoadedGraph>>>,
    loads: AtomicUsize,
    /// Graph *constructions*. The registry has no build path — it only
    /// loads `.cgteg` files — so this stays 0 by construction; it exists
    /// as a real counter (reported by `/healthz`, asserted `== 0` in CI)
    /// so that any future code path that does build a graph here must
    /// bump it and will trip the zero-builds contract visibly.
    builds: AtomicUsize,
}

impl Registry {
    /// A registry over `dir` (created lazily by whoever writes it; a
    /// missing directory just lists no graphs). Graphs are hosted through
    /// the zero-copy mapped loader by default — every session that opens a
    /// graph shares one `Arc`'d [`LoadedGraph`], so N sessions on a mapped
    /// graph share one read-only mapping; [`Registry::mmap`] opts back
    /// into heap decoding.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Registry {
            dir: dir.into(),
            mmap: true,
            loaded: Mutex::new(HashMap::new()),
            loads: AtomicUsize::new(0),
            builds: AtomicUsize::new(0),
        }
    }

    /// Enables or disables the mapped load path (default on). Estimates
    /// are bit-identical either way; this only changes how CSR payloads
    /// are held in memory.
    pub fn mmap(mut self, on: bool) -> Self {
        self.mmap = on;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// Number of graphs loaded from disk so far.
    pub fn loads(&self) -> usize {
        self.loads.load(Ordering::SeqCst)
    }

    /// Number of graphs *built* (see the field docs: structurally 0).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::SeqCst)
    }

    /// Number of `.cgteg` entries in the store directory — a directory
    /// listing only, no file contents touched (cheap enough for a
    /// per-request health check).
    pub fn count(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.flatten()
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("cgteg"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Lists the directory's `.cgteg` entries (rescanned per call, so
    /// newly ingested files appear without a restart) plus whether each is
    /// currently loaded.
    pub fn list(&self) -> Vec<(DiskEntry, bool)> {
        let loaded = self.loaded.lock().expect("registry lock poisoned");
        disk_entries(&self.dir)
            .into_iter()
            .map(|e| {
                let is_loaded = loaded.contains_key(&e.name);
                (e, is_loaded)
            })
            .collect()
    }

    /// The named graph, loading it from its `.cgteg` on first use. Load
    /// goes through full structural validation (user-supplied files must
    /// not be able to violate CSR invariants downstream).
    pub fn get(&self, name: &str) -> Result<Arc<LoadedGraph>, ServeError> {
        if let Some(g) = self
            .loaded
            .lock()
            .expect("registry lock poisoned")
            .get(name)
        {
            return Ok(Arc::clone(g));
        }
        // Load outside the map lock: a million-node load takes a second,
        // and other sessions must not stall behind it. Two concurrent
        // first-opens may both load; the second insert wins the race and
        // the loser's copy is dropped — wasteful but correct, and rare.
        let entry = disk_entries(&self.dir)
            .into_iter()
            .find(|e| e.name == name)
            .ok_or_else(|| {
                ServeError::not_found(format!("unknown graph {name:?} (see GET /graphs)"))
            })?;
        let LoadedStore {
            graph,
            rest: container,
        } = Loader::open(&entry.path)
            .validate(Validate::Full)
            .mmap(self.mmap)
            .load()
            .map_err(|e| ServeError::internal(format!("cannot load {:?}: {e}", entry.path)))?;
        let mut partitions = Vec::new();
        for (sec_name, _, _) in &entry.summary.sections {
            if let Some(pname) = sec_name.strip_prefix("part.") {
                if let Some(p) = cgte_graph::store::partition_from_container(
                    &container,
                    pname,
                    graph.num_nodes(),
                )
                .map_err(|e| {
                    ServeError::internal(format!("invalid partition {pname:?} in {name:?}: {e}"))
                })? {
                    partitions.push((pname.to_string(), p));
                }
            }
        }
        let indexes = partitions.iter().map(|_| OnceLock::new()).collect();
        let lg = Arc::new(LoadedGraph {
            name: name.to_string(),
            graph,
            partitions,
            indexes,
        });
        self.loads.fetch_add(1, Ordering::SeqCst);
        eprintln!(
            "serve: loaded graph {name:?} ({} nodes, {} edges, {} partition(s), {})",
            lg.graph.num_nodes(),
            lg.graph.num_edges(),
            lg.partitions.len(),
            if lg.graph.is_mapped() {
                "mapped"
            } else {
                "heap"
            }
        );
        self.loaded
            .lock()
            .expect("registry lock poisoned")
            .entry(name.to_string())
            .or_insert_with(|| Arc::clone(&lg));
        Ok(lg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgte_graph::store::write_bundle;
    use cgte_graph::GraphBuilder;

    fn write_demo(dir: &std::path::Path, name: &str) {
        let g = GraphBuilder::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let p = Partition::from_assignments(vec![0, 0, 1, 1], 2).unwrap();
        let mut bytes = Vec::new();
        write_bundle(&mut bytes, &g, Some(&p)).unwrap();
        std::fs::write(dir.join(format!("{name}.cgteg")), bytes).unwrap();
    }

    #[test]
    fn lists_loads_and_counts() {
        let dir = std::env::temp_dir().join(format!("cgte-serve-reg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_demo(&dir, "ring");
        let reg = Registry::new(&dir);
        let listed = reg.list();
        assert!(listed.iter().any(|(e, loaded)| e.name == "ring" && !loaded));
        let lg = reg.get("ring").unwrap();
        assert_eq!(lg.graph.num_nodes(), 4);
        assert_eq!(lg.partition_idx("main"), Some(0));
        assert_eq!(reg.loads(), 1);
        // Second get is served from memory.
        let again = reg.get("ring").unwrap();
        assert!(Arc::ptr_eq(&lg, &again));
        assert_eq!(reg.loads(), 1);
        assert!(reg.get("missing").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_index_build_is_thread_invariant() {
        let g =
            GraphBuilder::from_edges(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (6, 7)])
                .unwrap();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3).unwrap();
        let serial = NeighborCategoryIndex::build(&g, &p);
        for t in [1, 2, 3, 8] {
            assert_eq!(build_index_parallel(&g, &p, t), serial, "threads={t}");
        }
    }
}
