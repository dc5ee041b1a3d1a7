//! Fixtures shared by the integration tests: a per-process store
//! directory, the `.cgteg` bundles served from it, and the planted graph
//! most tests serve.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use cgte_graph::generators::{planted_partition, PlantedConfig};
use cgte_graph::store::write_bundle;
use cgte_graph::{Graph, Partition};
use cgte_serve::client::Client;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Unwrapping sugar over the shared client for test brevity.
pub trait RequestOk {
    fn request_ok(&mut self, method: &str, path: &str, body: &str) -> (u16, String);
}

impl RequestOk for Client {
    fn request_ok(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        self.request(method, path, body).unwrap()
    }
}

/// A fresh store directory, unique per test binary (process) and `tag`.
pub fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgte-serve-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `g` with `p` as its `main` partition to `dir/name.cgteg`.
pub fn write_graph(dir: &Path, name: &str, g: &Graph, p: &Partition) {
    let mut bytes = Vec::new();
    write_bundle(&mut bytes, g, Some(p)).unwrap();
    std::fs::write(dir.join(format!("{name}.cgteg")), bytes).unwrap();
}

/// A seeded planted-partition graph with the given category sizes.
pub fn planted_sized(category_sizes: &[usize], k: usize) -> (Graph, Partition) {
    let cfg = PlantedConfig {
        category_sizes: category_sizes.to_vec(),
        k,
        alpha: 0.3,
    };
    let pg = planted_partition(&cfg, &mut StdRng::seed_from_u64(1)).unwrap();
    (pg.graph, pg.partition)
}

/// The 280-node, 3-category planted graph most tests serve.
pub fn planted() -> (Graph, Partition) {
    planted_sized(&[40, 80, 160], 6)
}
