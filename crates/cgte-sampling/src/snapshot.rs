//! `.cgtes` — durable snapshots of in-flight observation streams.
//!
//! A stream's one `(node, weight)` push log is the distributed-systems
//! primitive of this codebase: replaying a log through the same `push`
//! path reaches bit-identical state (the merge law). A snapshot therefore
//! only needs to persist the log — restoring is a replay, and
//! `snapshot → restore → continue ingesting` is bit-identical to an
//! uninterrupted stream by construction (property-tested in
//! `tests/snapshot_roundtrip.rs`).
//!
//! The on-disk format reuses the `.cgteg` container codec from
//! [`cgte_graph::store`] verbatim — named, typed, individually
//! FNV-checksummed sections — under its own magic (`CGTES\0`), so
//! truncation and bit rot fail with the same clean [`StoreError`]s the
//! graph store is exhaustively tested for. As in every container, the
//! version field picks the framing: snapshots are [`VERSION`] 1, so
//! payloads are unpadded and carry the single-lane checksum. Consumers
//! (the `cgte-serve` session snapshots) add their own metadata sections
//! next to the log; this module owns only the stream payload.

use crate::observe::ObservationContext;
use crate::stream::ObservationStream;
use cgte_graph::store::{Container, Section, StoreError};
use cgte_graph::NodeId;
use std::io::{Read, Write};

/// File magic of a `.cgtes` session snapshot.
pub const MAGIC: &[u8; 6] = b"CGTES\0";
/// Current snapshot format version.
pub const VERSION: u16 = 1;

/// Section name of the pushed node ids (u32, one per sample, in order).
pub const SEC_LOG_NODES: &str = "log.nodes";
/// Section name of the pushed design weights (f64, parallel to
/// [`SEC_LOG_NODES`]; bit-exact round trip).
pub const SEC_LOG_WEIGHTS: &str = "log.weights";
/// Section name of the category count the stream was opened with (u64,
/// one element) — checked against the restoring context.
pub const SEC_CATEGORIES: &str = "log.categories";

/// Encodes a stream's push log as container sections.
///
/// The stream keeps one log for both wrapped accumulators, so it
/// reconstructs the pair.
pub fn stream_sections(stream: &ObservationStream) -> Vec<Section> {
    let log = stream.log();
    let mut nodes = Vec::with_capacity(log.len());
    let mut weights = Vec::with_capacity(log.len());
    for &(v, w) in log {
        nodes.push(v);
        weights.push(w);
    }
    vec![
        Section::u64s(SEC_CATEGORIES, vec![stream.num_categories() as u64]),
        Section::u32s(SEC_LOG_NODES, nodes),
        Section::f64s(SEC_LOG_WEIGHTS, weights),
    ]
}

/// Rebuilds a stream from a container's log sections by replaying every
/// `(node, weight)` through the push path — bit-identical to the stream
/// that was snapshotted (and to one that never stopped). The log is
/// validated first by [`log_from_container`].
pub fn stream_from_container(
    c: &Container,
    ctx: &ObservationContext<'_>,
) -> Result<ObservationStream, StoreError> {
    let (nodes, weights) = log_from_container(c, ctx)?;
    let mut stream = ObservationStream::new(ctx.num_categories());
    stream.ingest(ctx, nodes, weights);
    Ok(stream)
}

/// A container's validated log: the pushed node ids and their design
/// weights, ready for [`ObservationStream::ingest`] into a stream over
/// `ctx`.
///
/// All invariants a replay relies on are proven here — section presence
/// and types, equal lengths, the recorded category count matching the
/// context, node ids in range, weights positive and finite — so hostile
/// or stale input fails with a typed error before any state is touched.
pub fn log_from_container<'c>(
    c: &'c Container,
    ctx: &ObservationContext<'_>,
) -> Result<(&'c [NodeId], &'c [f64]), StoreError> {
    let cats = c.u64s(SEC_CATEGORIES)?;
    if cats.len() != 1 {
        return Err(StoreError::Format(format!(
            "section {SEC_CATEGORIES:?} must hold exactly one count, got {}",
            cats.len()
        )));
    }
    if cats[0] as usize != ctx.num_categories() {
        return Err(StoreError::Graph(format!(
            "snapshot observed {} categories, context has {}",
            cats[0],
            ctx.num_categories()
        )));
    }
    let nodes = c.u32s(SEC_LOG_NODES)?;
    let weights = c.f64s(SEC_LOG_WEIGHTS)?;
    if nodes.len() != weights.len() {
        return Err(StoreError::Format(format!(
            "log length mismatch: {} nodes vs {} weights",
            nodes.len(),
            weights.len()
        )));
    }
    let n = ctx.graph().num_nodes() as u64;
    for (&v, &w) in nodes.iter().zip(weights) {
        if (v as u64) >= n {
            return Err(StoreError::Graph(format!(
                "logged node {v} out of range (graph has {n} nodes)"
            )));
        }
        if !(w.is_finite() && w > 0.0) {
            return Err(StoreError::Graph(format!(
                "logged weight {w} for node {v} is not positive and finite"
            )));
        }
    }
    Ok((nodes, weights))
}

/// Writes a container as a `.cgtes` stream (the `CGTES\0` magic over the
/// shared section framing).
pub fn write_snapshot<W: Write>(w: W, c: &Container) -> std::io::Result<()> {
    c.write_to_magic(w, MAGIC, VERSION)
}

/// Reads a `.cgtes` stream back, verifying magic, version and every
/// per-section checksum. Corrupted or truncated input is a typed error,
/// never a panic.
pub fn read_snapshot<R: Read>(r: R) -> Result<Container, StoreError> {
    Container::read_from_magic(r, MAGIC, VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignKind, RandomWalk};
    use cgte_graph::{GraphBuilder, Partition};

    fn fixture() -> (cgte_graph::Graph, Partition) {
        let g =
            GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        (g, p)
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        let mut s = ObservationStream::new(2);
        s.ingest_sampler(
            &ctx,
            &[2, 3, 0, 5, 1, 4],
            &RandomWalk::new(),
            DesignKind::Weighted,
        );
        let mut c = Container::new();
        for sec in stream_sections(&s) {
            c.push(sec);
        }
        let mut buf = Vec::new();
        write_snapshot(&mut buf, &c).unwrap();
        let back = read_snapshot(&buf[..]).unwrap();
        let restored = stream_from_container(&back, &ctx).unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn graph_magic_is_rejected() {
        let c = Container::new();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap(); // .cgteg magic
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "{err}");
    }

    /// Every hostile log is refused by both entry points: the final
    /// cluster merge validates through `log_from_container` alone, so it
    /// must reject exactly what a restore rejects, before any push.
    #[test]
    fn out_of_range_node_and_bad_weight_rejected() {
        let (g, p) = fixture();
        let ctx = ObservationContext::new(&g, &p);
        for (case, (cats, nodes, weights)) in [
            (vec![2u64], vec![99u32], vec![1.0]),
            (vec![2], vec![1], vec![0.0]),
            (vec![2], vec![1], vec![f64::NAN]),
            (vec![2], vec![1, 2], vec![1.0]),
            // Category-count mismatch.
            (vec![7], vec![], vec![]),
            // The categories section must hold exactly one count.
            (vec![], vec![1], vec![1.0]),
            (vec![2, 2], vec![1], vec![1.0]),
        ]
        .into_iter()
        .enumerate()
        {
            let one_count = cats.len() == 1;
            let mut c = Container::new();
            c.push(Section::u64s(SEC_CATEGORIES, cats));
            c.push(Section::u32s(SEC_LOG_NODES, nodes));
            c.push(Section::f64s(SEC_LOG_WEIGHTS, weights));
            let err = log_from_container(&c, &ctx).unwrap_err().to_string();
            assert_eq!(
                stream_from_container(&c, &ctx).unwrap_err().to_string(),
                err,
                "case {case}"
            );
            if !one_count {
                assert!(err.contains("exactly one count"), "case {case}: {err}");
            }
        }
    }
}
