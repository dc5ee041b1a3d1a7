//! Byte pins of the shared section container: one fixed container written
//! as a `.cgteg` v2 file, with the v1 framing, and as a `.cgtes` session
//! snapshot. The lengths and digests are constants, so any change to the
//! on-disk bytes of either format (pads, checksums, header layout) fails
//! here first; files already on disk must keep loading.

use cgte_graph::store::{Container, Section, MAGIC, VERSION_V1};
use cgte_sampling::snapshot::write_snapshot;

/// Sections chosen so every element type appears and the name lengths and
/// payload sizes leave nonzero v2 pads in front of most payloads.
fn fixture() -> Container {
    let mut c = Container::new();
    c.push(Section::u64s("csr.offsets", vec![0, 2, 3, 4]));
    c.push(Section::u32s("csr.targets", vec![1, 2, 0, 0]));
    c.push(Section::bytes("odd", vec![1, 2, 3]));
    c.push(Section::u32s("part.main", vec![2, 0, 1, 1]));
    c.push(Section::f64s(
        "model.params",
        vec![1.5, -0.0, f64::from_bits(0x7ff8_0000_0000_0001)],
    ));
    c.push(Section::string("meta.kind", "pin"));
    c.push(Section::u64s("log.categories", vec![]));
    c
}

/// FNV-1a over the whole byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

fn pin(label: &str, bytes: &[u8], len: usize, digest: u64) {
    assert_eq!(
        (bytes.len(), fnv1a(bytes)),
        (len, digest),
        "{label} bytes changed: got len {} digest {:#018x}",
        bytes.len(),
        fnv1a(bytes)
    );
}

#[test]
fn cgteg_v2_bytes_are_pinned() {
    let mut buf = Vec::new();
    fixture().write_to(&mut buf).unwrap();
    pin("cgteg v2", &buf, 328, 0xe5e6_31a2_96e0_d778);
}

#[test]
fn v1_framing_bytes_are_pinned() {
    let mut buf = Vec::new();
    fixture()
        .write_to_magic(&mut buf, MAGIC, VERSION_V1)
        .unwrap();
    pin("cgteg v1", &buf, 308, 0x68c3_6eb5_ea47_4d04);
}

#[test]
fn cgtes_snapshot_bytes_are_pinned() {
    let mut buf = Vec::new();
    write_snapshot(&mut buf, &fixture()).unwrap();
    pin("cgtes", &buf, 308, 0x4eea_5215_5706_e4c0);
}
