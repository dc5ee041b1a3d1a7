//! The graph the serve and cluster workloads run on.
//!
//! Full scale is the 1M-node headline graph: Chung–Lu with power-law
//! weights (γ = 2.5, mean degree 10) and a top-50 community partition plus
//! a rest category (C = 51). Toy scale is a small planted-partition graph
//! for the self-test. Both are fixed inputs (their seeds do not follow
//! `--seed`), written once as `.cgteg` store entries and reused by every
//! later run in the same checkout.

use cgte_graph::generators::{
    par_chung_lu, par_planted_partition, powerlaw_weights, scale_to_mean, PlantedConfig,
};
use cgte_graph::store::{graph_sections, partition_section, Container, Section};
use cgte_graph::{Graph, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Seed of the fixed graph inputs.
const GRAPH_SEED: u64 = 42;

/// A store directory holding one named graph.
pub struct Fixture {
    pub dir: PathBuf,
    pub name: String,
}

impl Fixture {
    pub fn at(data: &Path, toy: bool) -> Fixture {
        let (sub, name) = if toy {
            ("store-toy", "toy-planted")
        } else {
            ("store-full", "headline-1m")
        };
        Fixture {
            dir: data.join(sub),
            name: name.to_string(),
        }
    }

    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.cgteg", self.name))
    }
}

fn generate(toy: bool) -> (Graph, Partition) {
    if toy {
        let pg = par_planted_partition(&PlantedConfig::scaled(30, 10, 0.5), GRAPH_SEED, 0)
            .expect("feasible planted config");
        return (pg.graph, pg.partition);
    }
    let n = 1_000_000;
    let mut w = powerlaw_weights(
        n,
        2.5,
        2.0,
        (n as f64).sqrt(),
        &mut StdRng::seed_from_u64(GRAPH_SEED),
    );
    scale_to_mean(&mut w, 10.0);
    let g = par_chung_lu(&w, GRAPH_SEED, 0);
    let p = cgte_datasets::standin_partition(
        &g,
        50,
        false,
        &mut StdRng::seed_from_u64(GRAPH_SEED ^ 0x5E7E),
    );
    (g, p)
}

/// Writes the fixture unless it already exists, then prints its path as
/// one JSON line.
pub fn prepare(data: &Path, toy: bool) -> Result<(), String> {
    let fx = Fixture::at(data, toy);
    let path = fx.path();
    if !path.exists() {
        generate_into(&fx, toy)?;
    }
    println!(
        "{{\"fixture\": {}}}",
        crate::json_str(&path.display().to_string())
    );
    Ok(())
}

/// Generates and writes the fixture (a temporary file renamed into place,
/// so an interrupted run never leaves a truncated entry).
fn generate_into(fx: &Fixture, toy: bool) -> Result<(), String> {
    let path = fx.path();
    std::fs::create_dir_all(&fx.dir).map_err(|e| format!("cannot create {:?}: {e}", fx.dir))?;
    let t0 = std::time::Instant::now();
    let (g, p) = generate(toy);
    let mut c = Container::new();
    c.push(Section::string("meta.kind", "graph"));
    for s in graph_sections(&g) {
        c.push(s);
    }
    c.push(partition_section("main", &p));
    let tmp = fx.dir.join(format!("{}.tmp", fx.name));
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(&tmp).map_err(|e| format!("cannot create {tmp:?}: {e}"))?,
    );
    c.write_to(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {tmp:?}: {e}"))?;
    drop(out);
    std::fs::rename(&tmp, &path).map_err(|e| format!("cannot rename {tmp:?}: {e}"))?;
    eprintln!(
        "perfbench: wrote {} ({} nodes, {} edges, {} categories) in {:.1} s",
        path.display(),
        g.num_nodes(),
        g.num_edges(),
        p.num_categories(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}
