//! `.cgteg` — the persistent binary graph container.
//!
//! Large-graph frameworks (SNAP-derived toolkits, Ligra-style CSR loaders)
//! all converge on the same trick: serialize the CSR arrays once and mmap
//! or bulk-read them forever after, turning repeated experiment runs into
//! load-bound work. This module is our version of that container:
//!
//! ```text
//! magic   "CGTEG\0"            6 bytes
//! version u16                  1 (unaligned) or 2 (current, aligned)
//! nsect   u32                  number of sections
//! section × nsect:
//!   name_len u16, name utf-8   e.g. "csr.offsets", "part.main"
//!   tag      u8                1 = u32, 2 = u64, 3 = f64, 4 = bytes
//!   count    u64               element count
//!   pad      0–7 zero bytes    version 2 only: aligns payload to 8
//!   payload  count × size      little-endian
//!   checksum u64               multiplicative mix over name ‖ tag ‖
//!                              payload (which one: see below)
//! ```
//!
//! Everything is little-endian. The container is deliberately generic — a
//! flat list of named, typed, individually checksummed sections — so the
//! same format carries a bare graph (`csr.offsets` + `csr.targets`), a
//! graph with partition blocks (`part.<name>`), or richer layered bundles
//! (the scenario engine's disk cache stores whole Facebook-simulation
//! bundles, crawls included, as extra sections). Sibling formats reuse it
//! under their own magic through [`Container::write_to_magic`] and
//! [`Container::read_from_magic`] (the `.cgtes` session snapshots).
//!
//! **The version field alone picks the framing**, under any magic:
//! version 1 puts each payload right after its header and checksums it
//! with the single-lane `section_checksum`; version 2 pads each payload
//! with zeros to a file offset divisible by 8 and checksums it with the
//! 4-lane `section_checksum_v2`, which verifies at memory bandwidth. Any
//! other version is an error on write and on read. The alignment plus the
//! fixed-width little-endian encoding lets [`Loader`] borrow a version 2
//! file's CSR arrays *in place* from a page-aligned memory mapping
//! instead of decoding them into heap vectors; version 1 files load
//! through the streamed heap path. The pad length is derived from the
//! stream position (never stored), and every reader requires the pad
//! bytes to be zero, so a flipped pad byte is detected even though pads
//! are outside the checksum.
//!
//! Loading never panics on hostile input: magic/version/structure problems
//! surface as [`StoreError::Format`], bit rot as [`StoreError::Checksum`],
//! and CSR-invariant violations as [`StoreError::Graph`] — on the mapped
//! path exactly as on the streamed path. See [`Validate`] for how much CSR
//! structure each trust level proves.
//!
//! The one entry point is the [`Loader`] builder:
//!
//! ```no_run
//! use cgte_graph::store::{Loader, Validate};
//! let bundle = Loader::open("graph.cgteg")
//!     .validate(Validate::Full)
//!     .mmap(true)
//!     .load_bundle()?;
//! # Ok::<(), cgte_graph::store::StoreError>(())
//! ```

#[cfg(cgte_mmap)]
use crate::mmap::{MappedCsr, Mmap};
use crate::{Graph, NodeId, Partition};
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
#[cfg(cgte_mmap)]
use std::sync::Arc;

/// File magic, first 6 bytes of every `.cgteg`.
pub const MAGIC: &[u8; 6] = b"CGTEG\0";
/// Current container version (aligned payloads, 4-lane checksum).
pub const VERSION: u16 = 2;
/// The legacy unaligned version, still readable.
pub const VERSION_V1: u16 = 1;

/// Section name of the CSR offset array (u64, `num_nodes + 1` entries).
pub const SEC_OFFSETS: &str = "csr.offsets";
/// Section name of the CSR target array (u32, `2 |E|` entries).
pub const SEC_TARGETS: &str = "csr.targets";

/// Section name of a named partition block: `data[0]` is the category
/// count, `data[1..]` the per-node assignments.
pub fn partition_section_name(name: &str) -> String {
    format!("part.{name}")
}

/// Errors surfaced while reading or decoding a container.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Malformed container: bad magic, unsupported version, truncated or
    /// structurally invalid section framing.
    Format(String),
    /// A section's payload does not match its recorded checksum.
    Checksum {
        /// Name of the corrupted section.
        section: String,
    },
    /// The CSR (or partition) content violates a graph invariant.
    Graph(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Format(m) => write!(f, "malformed .cgteg: {m}"),
            StoreError::Checksum { section } => {
                write!(
                    f,
                    "checksum mismatch in section {section:?} (corrupted file?)"
                )
            }
            StoreError::Graph(m) => write!(f, "invalid graph data: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            StoreError::Format("truncated file".into())
        } else {
            StoreError::Io(e)
        }
    }
}

/// How thoroughly [`Loader`] checks CSR structure. Per-section checksums
/// are verified at every level; the levels differ only in how much graph
/// *structure* they additionally prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Validate {
    /// Prove every invariant, including adjacency symmetry (one extra
    /// `O(E)` transpose pass). Use for files from unknown sources.
    Full,
    /// Skip only the symmetry transpose; bounds, monotonicity, strict
    /// sortedness and self-loop freedom are still checked in `O(V + E)`.
    Structure,
    /// Checksums plus `O(1)` framing checks only (offset array non-empty
    /// and zero-based, final offset matching the target count, even target
    /// count). For files this process (or a sibling cache writer) wrote
    /// itself: the checksums already rule out bit rot, and every [`Graph`]
    /// access is bounds-checked, so a structurally impossible file ends in
    /// a clean panic rather than unsoundness. Skipping the `O(V + E)`
    /// structural passes is what makes a mapped load's cost independent of
    /// graph size.
    Trusted,
}

/// Typed payload of one section.
#[derive(Debug, Clone, PartialEq)]
pub enum SectionData {
    /// 32-bit unsigned integers (node ids, assignments).
    U32(Vec<u32>),
    /// 64-bit unsigned integers (offsets, counts).
    U64(Vec<u64>),
    /// 64-bit floats (model parameters); bit-exact round trip.
    F64(Vec<f64>),
    /// Raw bytes (strings, metadata).
    Bytes(Vec<u8>),
}

impl SectionData {
    fn tag(&self) -> u8 {
        match self {
            SectionData::U32(_) => 1,
            SectionData::U64(_) => 2,
            SectionData::F64(_) => 3,
            SectionData::Bytes(_) => 4,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            SectionData::U32(v) => v.len(),
            SectionData::U64(v) => v.len(),
            SectionData::F64(v) => v.len(),
            SectionData::Bytes(v) => v.len(),
        }
    }

    /// Whether the section holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload size in bytes.
    pub fn byte_len(&self) -> usize {
        self.len() * elem_size(self.tag()).expect("every variant has a tag") as usize
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        match self {
            SectionData::U32(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            SectionData::U64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            SectionData::F64(v) => {
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            SectionData::Bytes(v) => out.extend_from_slice(v),
        }
        out
    }

    fn from_payload(tag: u8, count: usize, bytes: &[u8]) -> Result<SectionData, StoreError> {
        Ok(match tag {
            1 => SectionData::U32(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ),
            2 => SectionData::U64(
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect(),
            ),
            3 => SectionData::F64(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect(),
            ),
            4 => SectionData::Bytes(bytes.to_vec()),
            other => {
                return Err(StoreError::Format(format!(
                    "unknown section tag {other} ({count} elements)"
                )))
            }
        })
    }
}

/// One named, typed section.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name (looked up by readers; ignored names are skipped).
    pub name: String,
    /// Payload.
    pub data: SectionData,
}

impl Section {
    /// A u32 section.
    pub fn u32s(name: impl Into<String>, data: Vec<u32>) -> Self {
        Section {
            name: name.into(),
            data: SectionData::U32(data),
        }
    }

    /// A u64 section.
    pub fn u64s(name: impl Into<String>, data: Vec<u64>) -> Self {
        Section {
            name: name.into(),
            data: SectionData::U64(data),
        }
    }

    /// An f64 section.
    pub fn f64s(name: impl Into<String>, data: Vec<f64>) -> Self {
        Section {
            name: name.into(),
            data: SectionData::F64(data),
        }
    }

    /// A raw-bytes section (also used for strings).
    pub fn bytes(name: impl Into<String>, data: Vec<u8>) -> Self {
        Section {
            name: name.into(),
            data: SectionData::Bytes(data),
        }
    }

    /// A string section (bytes, utf-8).
    pub fn string(name: impl Into<String>, s: &str) -> Self {
        Section::bytes(name, s.as_bytes().to_vec())
    }
}

/// The per-section checksum: an FNV-style multiplicative mix consumed in
/// 8-byte blocks (with a byte-wise FNV-1a tail), so hashing a 40 MB
/// payload costs one multiply per word instead of one per byte — at CSR
/// sizes the checksum would otherwise dominate load time. Each chunk's
/// length is folded in so chunk boundaries stay significant.
fn section_checksum(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        let mut blocks = chunk.chunks_exact(8);
        for b in &mut blocks {
            let x = u64::from_le_bytes(b.try_into().expect("8-byte block"));
            h = (h ^ x).wrapping_mul(0x1000_0000_01b3);
            h ^= h >> 32;
        }
        for &b in blocks.remainder() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h = (h ^ chunk.len() as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The v2 per-section checksum: four independent [`section_checksum`]-style
/// lanes consuming interleaved 8-byte words of each 32-byte block. The
/// serial multiply in the single-lane mix caps verification around
/// 2 GB/s — slow enough to dominate a zero-copy load, where the checksum
/// is the *only* full pass over the CSR bytes. Four independent dependency
/// chains let the multiplies overlap and verification runs near memory
/// bandwidth. Detection strength is preserved: every per-lane operation
/// (xor with data, multiply by an odd prime, xor-shift) is a bijection of
/// the lane state, as is each step of the final fold, so any single flipped
/// byte — which perturbs exactly one lane, or the lane-0 tail — is
/// guaranteed to change the result.
fn section_checksum_v2(chunks: &[&[u8]]) -> u64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut lanes: [u64; 4] = [
        0xcbf2_9ce4_8422_2325,
        0x9ae1_6a3b_2f90_404f,
        0x2545_f491_4f6c_dd1d,
        0x27d4_eb2f_1656_67c5,
    ];
    for chunk in chunks {
        let mut blocks = chunk.chunks_exact(32);
        for b in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(b.chunks_exact(8)) {
                let x = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                *lane = (*lane ^ x).wrapping_mul(PRIME);
                *lane ^= *lane >> 32;
            }
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            let x = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            lanes[0] = (lanes[0] ^ x).wrapping_mul(PRIME);
            lanes[0] ^= lanes[0] >> 32;
        }
        for &b in words.remainder() {
            lanes[0] ^= b as u64;
            lanes[0] = lanes[0].wrapping_mul(PRIME);
        }
        lanes[0] = (lanes[0] ^ chunk.len() as u64).wrapping_mul(PRIME);
    }
    let mut h = lanes[0];
    for &lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(PRIME);
        h ^= h >> 32;
    }
    h
}

/// The section framing a container version selects — a pure function of
/// the version field, whatever the magic. The one writer and every reader
/// (streamed, mapped, table-of-contents scan) go through this type, so no
/// two of them can disagree about a file's pads or checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Framing {
    /// Version 1: payloads follow their header unpadded, single-lane
    /// [`section_checksum`].
    Unaligned,
    /// Version 2: payloads start at an 8-byte file offset, 4-lane
    /// [`section_checksum_v2`].
    Aligned,
}

impl Framing {
    /// The framing of a container version; `None` for any version this
    /// build neither reads nor writes.
    fn of(version: u16) -> Option<Framing> {
        match version {
            VERSION_V1 => Some(Framing::Unaligned),
            VERSION => Some(Framing::Aligned),
            _ => None,
        }
    }

    /// Zero bytes that follow a section header ending at stream position
    /// `pos`, before its payload. Derived from the position, never stored.
    fn pad(self, pos: u64) -> usize {
        match self {
            Framing::Unaligned => 0,
            Framing::Aligned => (pos.wrapping_neg() % 8) as usize,
        }
    }

    /// The checksum stored after a section's payload.
    fn checksum(self, name: &[u8], tag: u8, payload: &[u8]) -> u64 {
        let chunks = [name, &[tag], payload];
        match self {
            Framing::Unaligned => section_checksum(&chunks),
            Framing::Aligned => section_checksum_v2(&chunks),
        }
    }
}

/// Payload bytes per element of a section tag; `None` for an unknown tag.
fn elem_size(tag: u8) -> Option<u64> {
    match tag {
        1 => Some(4),
        2 | 3 => Some(8),
        4 => Some(1),
        _ => None,
    }
}

/// A parsed (or to-be-written) container: an ordered list of sections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Container {
    /// Sections in file order.
    pub sections: Vec<Section>,
}

impl Container {
    /// An empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section.
    pub fn push(&mut self, s: Section) {
        self.sections.push(s);
    }

    /// Looks up a section's data by name (first match).
    pub fn get(&self, name: &str) -> Option<&SectionData> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.data)
    }

    /// Removes and returns a section's data by name (first match). Lets
    /// loaders move large payloads (the CSR target array) out of the
    /// container instead of copying them.
    pub fn take(&mut self, name: &str) -> Option<SectionData> {
        let i = self.sections.iter().position(|s| s.name == name)?;
        Some(self.sections.remove(i).data)
    }

    /// A required u32 section.
    pub fn u32s(&self, name: &str) -> Result<&[u32], StoreError> {
        match self.get(name) {
            Some(SectionData::U32(v)) => Ok(v),
            Some(_) => Err(StoreError::Format(format!("section {name:?} is not u32"))),
            None => Err(StoreError::Format(format!("missing section {name:?}"))),
        }
    }

    /// A required u64 section.
    pub fn u64s(&self, name: &str) -> Result<&[u64], StoreError> {
        match self.get(name) {
            Some(SectionData::U64(v)) => Ok(v),
            Some(_) => Err(StoreError::Format(format!("section {name:?} is not u64"))),
            None => Err(StoreError::Format(format!("missing section {name:?}"))),
        }
    }

    /// A required f64 section.
    pub fn f64s(&self, name: &str) -> Result<&[f64], StoreError> {
        match self.get(name) {
            Some(SectionData::F64(v)) => Ok(v),
            Some(_) => Err(StoreError::Format(format!("section {name:?} is not f64"))),
            None => Err(StoreError::Format(format!("missing section {name:?}"))),
        }
    }

    /// A required string (bytes, utf-8) section.
    pub fn string(&self, name: &str) -> Result<&str, StoreError> {
        match self.get(name) {
            Some(SectionData::Bytes(v)) => std::str::from_utf8(v)
                .map_err(|_| StoreError::Format(format!("section {name:?} is not utf-8"))),
            Some(_) => Err(StoreError::Format(format!("section {name:?} is not bytes"))),
            None => Err(StoreError::Format(format!("missing section {name:?}"))),
        }
    }

    /// Serializes the container in the current format, version 2: every
    /// payload padded to an 8-byte file offset, 4-lane checksums.
    pub fn write_to<W: Write>(&self, w: W) -> io::Result<()> {
        self.write_to_magic(w, MAGIC, VERSION)
    }

    /// Serializes the container under a caller-chosen magic and version —
    /// the same section framing carries sibling formats (the `.cgtes`
    /// session snapshots use `CGTES\0`). The version alone picks the
    /// framing (see the module docs); a version this build cannot read
    /// back is an error.
    pub fn write_to_magic<W: Write>(
        &self,
        mut w: W,
        magic: &[u8; 6],
        version: u16,
    ) -> io::Result<()> {
        let framing = Framing::of(version)
            .ok_or_else(|| io::Error::other(format!("unsupported container version {version}")))?;
        w.write_all(magic)?;
        w.write_all(&version.to_le_bytes())?;
        let nsect = u32::try_from(self.sections.len())
            .map_err(|_| io::Error::other("too many sections"))?;
        w.write_all(&nsect.to_le_bytes())?;
        let mut pos: u64 = 12; // magic + version + nsect
        for s in &self.sections {
            let name = s.name.as_bytes();
            let name_len = u16::try_from(name.len())
                .map_err(|_| io::Error::other(format!("section name too long: {:?}", s.name)))?;
            w.write_all(&name_len.to_le_bytes())?;
            w.write_all(name)?;
            let tag = s.data.tag();
            w.write_all(&[tag])?;
            w.write_all(&(s.data.len() as u64).to_le_bytes())?;
            pos += 2 + name.len() as u64 + 1 + 8;
            let pad = framing.pad(pos);
            w.write_all(&[0u8; 8][..pad])?;
            let payload = s.data.payload();
            w.write_all(&payload)?;
            w.write_all(&framing.checksum(name, tag, &payload).to_le_bytes())?;
            pos += (pad + payload.len() + 8) as u64;
        }
        Ok(())
    }

    /// Parses a `.cgteg` container (version 1 or 2), verifying the magic,
    /// section framing and every per-section checksum. Truncated or
    /// corrupted input yields an error — never a panic.
    pub fn read_from<R: Read>(r: R) -> Result<Container, StoreError> {
        read_container(r, MAGIC, &[VERSION_V1, VERSION])
    }

    /// Like [`Container::read_from`], but for a sibling format with its
    /// own magic and version (see [`Container::write_to_magic`]).
    pub fn read_from_magic<R: Read>(
        r: R,
        expect_magic: &[u8; 6],
        expect_version: u16,
    ) -> Result<Container, StoreError> {
        read_container(r, expect_magic, &[expect_version])
    }
}

/// The streamed reader behind [`Container::read_from`] and
/// [`Container::read_from_magic`]: decodes every section heap-owned.
fn read_container<R: Read>(r: R, magic: &[u8; 6], accept: &[u16]) -> Result<Container, StoreError> {
    let mut r = CountingReader { inner: r, pos: 0 };
    let (_, framing, nsect) = read_preamble(&mut r, magic, accept)?;
    let mut sections = Vec::new();
    for i in 0..nsect {
        let h = read_section_header(&mut r, framing, i)?;
        // Read via `take` so a corrupted (huge) count cannot trigger a
        // matching up-front allocation: beyond the pre-reserve cap the
        // buffer grows only as real bytes arrive, and a short read is a
        // clean truncation error. Honest section sizes (the cap is far
        // above any real graph's) are reserved exactly, so the bulk read
        // lands in one allocation with no regrow copies.
        const RESERVE_CAP: u64 = 1 << 28;
        let mut payload = Vec::new();
        payload.reserve_exact(h.byte_len.min(RESERVE_CAP) as usize);
        let read = (&mut r)
            .take(h.byte_len)
            .read_to_end(&mut payload)
            .map_err(StoreError::Io)?;
        if read as u64 != h.byte_len {
            return Err(h.truncated(read as u64));
        }
        h.verify(framing, &payload, read_u64(&mut r)?)?;
        let data = SectionData::from_payload(h.tag, h.count as usize, &payload)?;
        sections.push(Section { name: h.name, data });
    }
    Ok(Container { sections })
}

/// Reads and checks a container's preamble: the magic, then a version
/// that both this build and the caller accept. Returns the version, its
/// framing and the section count.
fn read_preamble<R: Read>(
    r: &mut R,
    expect_magic: &[u8; 6],
    accept: &[u16],
) -> Result<(u16, Framing, u32), StoreError> {
    let mut magic = [0u8; 6];
    r.read_exact(&mut magic)?;
    if &magic != expect_magic {
        return Err(StoreError::Format(format!(
            "bad magic {magic:?} (expected {expect_magic:?})"
        )));
    }
    let version = read_u16(r)?;
    let framing = Framing::of(version)
        .filter(|_| accept.contains(&version))
        .ok_or_else(|| {
            StoreError::Format(format!(
                "unsupported version {version} (this build reads versions {VERSION_V1} and {VERSION}; expected {accept:?})"
            ))
        })?;
    Ok((version, framing, read_u32(r)?))
}

/// A section's framing up to its payload: what [`read_section_header`]
/// returns with the reader positioned on the first payload byte.
struct SectionHeader {
    name: String,
    tag: u8,
    count: u64,
    byte_len: u64,
}

impl SectionHeader {
    /// The error for a payload cut short after `got` bytes.
    fn truncated(&self, got: u64) -> StoreError {
        StoreError::Format(format!(
            "section {:?} truncated ({got} of {} bytes)",
            self.name, self.byte_len
        ))
    }

    /// Checks the stored checksum against the payload.
    fn verify(&self, framing: Framing, payload: &[u8], stored: u64) -> Result<(), StoreError> {
        if framing.checksum(self.name.as_bytes(), self.tag, payload) == stored {
            Ok(())
        } else {
            Err(StoreError::Checksum {
                section: self.name.clone(),
            })
        }
    }
}

/// Reads section `index`'s header — name, tag, count — checks the element
/// type and that the payload size fits a `u64`, then consumes the pad the
/// framing puts before the payload and requires it to be zero (pads are
/// not checksummed, so this is what keeps them tamper-evident). The one
/// header walk behind the streamed, mapped and table-of-contents readers.
fn read_section_header<R: Read>(
    r: &mut CountingReader<R>,
    framing: Framing,
    index: u32,
) -> Result<SectionHeader, StoreError> {
    let name_len = read_u16(r)? as usize;
    let mut name_buf = vec![0u8; name_len];
    r.read_exact(&mut name_buf)?;
    let name = String::from_utf8(name_buf)
        .map_err(|_| StoreError::Format(format!("section {index} name is not utf-8")))?;
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let tag = tag[0];
    let count = read_u64(r)?;
    let elem = elem_size(tag)
        .ok_or_else(|| StoreError::Format(format!("section {name:?} has unknown tag {tag}")))?;
    let byte_len = count
        .checked_mul(elem)
        .ok_or_else(|| StoreError::Format(format!("section {name:?} count overflows")))?;
    let mut pad = [0u8; 8];
    let pad = &mut pad[..framing.pad(r.pos)];
    r.read_exact(pad)?;
    if pad.iter().any(|&b| b != 0) {
        return Err(StoreError::Format(format!(
            "section {name:?} has nonzero pad bytes"
        )));
    }
    Ok(SectionHeader {
        name,
        tag,
        count,
        byte_len,
    })
}

/// A lightweight table-of-contents view of a `.cgteg` file, produced by
/// [`scan_summary`] without materializing the (large) CSR payloads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreSummary {
    /// Container version the file was written with (1 or 2).
    pub version: u16,
    /// `(name, element count, payload bytes)` of every section, in order.
    pub sections: Vec<(String, usize, usize)>,
    /// Node count derived from the CSR offsets section, if present.
    pub num_nodes: Option<usize>,
    /// Edge count derived from the CSR targets section, if present.
    pub num_edges: Option<usize>,
    /// The `meta.kind` string, if present.
    pub kind: Option<String>,
    /// The `meta.key` string, if present (the scenario cache's content
    /// key / collision guard).
    pub key: Option<String>,
    /// Names of the partition blocks (`part.<name>` sections).
    pub partitions: Vec<String>,
}

/// Scans a container's framing without loading section payloads: small
/// metadata sections (`meta.*`) are read, everything else is **seeked
/// past** — `O(metadata)` memory *and* I/O regardless of graph size,
/// which is what lets a server list a directory of million-node graphs
/// without reading any of them.
///
/// Headers and pads get the same checks as on a full load, but checksums
/// of skipped sections are **not** verified; the full
/// [`Container::read_from`] path re-validates everything at load time.
pub fn scan_summary<R: Read + io::Seek>(r: R) -> Result<StoreSummary, StoreError> {
    let mut r = CountingReader { inner: r, pos: 0 };
    let (version, framing, nsect) = read_preamble(&mut r, MAGIC, &[VERSION_V1, VERSION])?;
    let mut out = StoreSummary {
        version,
        ..StoreSummary::default()
    };
    for i in 0..nsect {
        let h = read_section_header(&mut r, framing, i)?;
        // Metadata strings are tiny; cap defensively so a hostile count
        // cannot balloon the scan.
        const META_CAP: u64 = 1 << 16;
        if h.tag == 4 && h.name.starts_with("meta.") && h.byte_len <= META_CAP {
            let mut payload = vec![0u8; h.byte_len as usize];
            r.read_exact(&mut payload)?;
            if let Ok(s) = std::str::from_utf8(&payload) {
                match h.name.as_str() {
                    "meta.kind" => out.kind = Some(s.to_string()),
                    "meta.key" => out.key = Some(s.to_string()),
                    _ => {}
                }
            }
        } else {
            // A seek past the end is allowed; the checksum read below is
            // what fails on a payload cut short.
            let skip = i64::try_from(h.byte_len)
                .map_err(|_| StoreError::Format(format!("section {:?} count overflows", h.name)))?;
            r.inner
                .seek(io::SeekFrom::Current(skip))
                .map_err(StoreError::Io)?;
            r.pos += h.byte_len;
        }
        let _checksum = read_u64(&mut r)?;
        match h.name.as_str() {
            SEC_OFFSETS => out.num_nodes = Some((h.count as usize).saturating_sub(1)),
            SEC_TARGETS => out.num_edges = Some(h.count as usize / 2),
            _ => {
                if let Some(p) = h.name.strip_prefix("part.") {
                    out.partitions.push(p.to_string());
                }
            }
        }
        out.sections
            .push((h.name, h.count as usize, h.byte_len as usize));
    }
    Ok(out)
}

/// Wraps a reader with a running byte position, so every reader can
/// recompute each section's pad length (pads are position-derived, never
/// stored) without requiring `Seek`.
struct CountingReader<R> {
    inner: R,
    pos: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.pos += n as u64;
        Ok(n)
    }
}

fn read_u16<R: Read>(r: &mut R) -> Result<u16, StoreError> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, StoreError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

// ---------------------------------------------------------------------------
// Graph / partition codecs

/// The two CSR sections of a graph.
pub fn graph_sections(g: &Graph) -> Vec<Section> {
    vec![
        Section::u64s(
            SEC_OFFSETS,
            g.csr_offsets().iter().map(|&o| o as u64).collect(),
        ),
        Section::u32s(SEC_TARGETS, g.csr_neighbors().to_vec()),
    ]
}

/// Encodes a partition as one section: `data[0]` is the category count,
/// `data[1..]` the per-node category assignments.
pub fn partition_section(name: &str, p: &Partition) -> Section {
    let mut data = Vec::with_capacity(p.num_nodes() + 1);
    data.push(p.num_categories() as u32);
    data.extend_from_slice(p.assignments());
    Section::u32s(partition_section_name(name), data)
}

/// Decodes the named partition block, if present, checking that it covers
/// exactly `num_nodes` nodes.
pub fn partition_from_container(
    c: &Container,
    name: &str,
    num_nodes: usize,
) -> Result<Option<Partition>, StoreError> {
    let sec = partition_section_name(name);
    let Some(data) = c.get(&sec) else {
        return Ok(None);
    };
    let SectionData::U32(v) = data else {
        return Err(StoreError::Format(format!("section {sec:?} is not u32")));
    };
    let Some((&ncat, assign)) = v.split_first() else {
        return Err(StoreError::Graph(format!("partition {name:?} is empty")));
    };
    if assign.len() != num_nodes {
        return Err(StoreError::Graph(format!(
            "partition {name:?} covers {} nodes, graph has {num_nodes}",
            assign.len()
        )));
    }
    Partition::from_assignments(assign.to_vec(), ncat as usize)
        .map(Some)
        .map_err(|e| StoreError::Graph(e.to_string()))
}

/// Reconstructs the graph from the CSR sections, proving the invariants
/// the in-memory [`Graph`] relies on (see [`Validate`]).
#[cfg(test)]
fn graph_from_container(c: &Container, validate: Validate) -> Result<Graph, StoreError> {
    let offsets64 = c.u64s(SEC_OFFSETS)?;
    let targets = c.u32s(SEC_TARGETS)?;
    let offsets = validate_csr(offsets64, targets, validate)?;
    Ok(Graph::from_csr_trusted(offsets, targets.to_vec()))
}

/// The hot owned-decode path behind [`Loader::load`] for streamed (v1 or
/// non-mmap) loads: removes both CSR sections from the container, moving
/// the (large) target array into the graph instead of copying it.
fn graph_from_container_owned(c: &mut Container, validate: Validate) -> Result<Graph, StoreError> {
    let offsets = validate_csr(c.u64s(SEC_OFFSETS)?, c.u32s(SEC_TARGETS)?, validate)?;
    c.take(SEC_OFFSETS);
    let Some(SectionData::U32(targets)) = c.take(SEC_TARGETS) else {
        unreachable!("{SEC_TARGETS:?} was checked to be u32 above")
    };
    Ok(Graph::from_csr_trusted(offsets, targets))
}

/// Converts the on-disk u64 offsets to `usize` (the streamed path's half
/// of [`validate_csr`]; the mapped path reinterprets in place instead).
fn offsets_to_usize(offsets64: &[u64]) -> Result<Vec<usize>, StoreError> {
    let mut offsets = Vec::with_capacity(offsets64.len());
    for &o in offsets64 {
        offsets.push(
            usize::try_from(o).map_err(|_| {
                StoreError::Graph(format!("offset {o} exceeds this platform's usize"))
            })?,
        );
    }
    Ok(offsets)
}

/// Verifies CSR invariants (per [`Validate`]) on the final `usize`/`u32`
/// views — shared verbatim by the streamed (decoded vectors) and mapped
/// (borrowed slices) load paths.
fn check_csr(offsets: &[usize], targets: &[NodeId], validate: Validate) -> Result<(), StoreError> {
    if offsets.is_empty() {
        return Err(StoreError::Graph("offset array is empty".into()));
    }
    let n = offsets.len() - 1;
    if n > NodeId::MAX as usize {
        return Err(StoreError::Graph(format!(
            "{n} nodes exceed NodeId capacity"
        )));
    }
    if offsets[0] != 0 {
        return Err(StoreError::Graph("offsets do not start at 0".into()));
    }
    if *offsets.last().expect("non-empty") != targets.len() {
        return Err(StoreError::Graph(format!(
            "last offset {} does not match target count {}",
            offsets.last().expect("non-empty"),
            targets.len()
        )));
    }
    if !targets.len().is_multiple_of(2) {
        return Err(StoreError::Graph(
            "odd target count (undirected edges are stored twice)".into(),
        ));
    }
    if validate == Validate::Trusted {
        return Ok(());
    }
    if !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(StoreError::Graph("offsets are not monotone".into()));
    }
    // Bounds first, over the flat array (vectorizes well), then per-list
    // structure: strictly ascending (no duplicates) and self-loop free.
    if let Some(&bad) = targets.iter().find(|&&u| u as usize >= n) {
        return Err(StoreError::Graph(format!(
            "target {bad} out of range ({n} nodes)"
        )));
    }
    for v in 0..n {
        let adj = &targets[offsets[v]..offsets[v + 1]];
        if !adj.windows(2).all(|w| w[0] < w[1]) {
            return Err(StoreError::Graph(format!(
                "adjacency of node {v} is not strictly sorted"
            )));
        }
        if adj.binary_search(&(v as NodeId)).is_ok() {
            return Err(StoreError::Graph(format!("self-loop on node {v}")));
        }
    }
    if validate == Validate::Full {
        // Symmetry via one O(E) transpose pass: because source nodes are
        // visited in ascending order, the transpose of a symmetric CSR is
        // itself — any mismatch is an asymmetric edge.
        let mut cursor = offsets[..n].to_vec();
        let mut transpose = vec![0 as NodeId; targets.len()];
        for u in 0..n {
            for &v in &targets[offsets[u]..offsets[u + 1]] {
                let vi = v as usize;
                if cursor[vi] == offsets[vi + 1] {
                    return Err(StoreError::Graph(format!(
                        "edge ({u},{v}) is not symmetric"
                    )));
                }
                transpose[cursor[vi]] = u as NodeId;
                cursor[vi] += 1;
            }
        }
        if transpose != *targets {
            return Err(StoreError::Graph("adjacency is not symmetric".into()));
        }
    }
    Ok(())
}

/// Verifies CSR invariants (per [`Validate`]) and returns the offsets
/// converted to `usize`.
fn validate_csr(
    offsets64: &[u64],
    targets: &[u32],
    validate: Validate,
) -> Result<Vec<usize>, StoreError> {
    let offsets = offsets_to_usize(offsets64)?;
    check_csr(&offsets, targets, validate)?;
    Ok(offsets)
}

// ---------------------------------------------------------------------------
// Convenience bundle API (cgte ingest / file= scenario sources)

/// A graph plus its optional primary partition — what `cgte ingest`
/// writes and `file =` scenario sources read.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphBundle {
    /// The graph.
    pub graph: Graph,
    /// The `main` partition block, when the file carries one.
    pub partition: Option<Partition>,
}

/// Writes a graph (+ optional `main` partition) as a `.cgteg` stream.
pub fn write_bundle<W: Write>(
    w: W,
    graph: &Graph,
    partition: Option<&Partition>,
) -> io::Result<()> {
    let mut c = Container::new();
    for s in graph_sections(graph) {
        c.push(s);
    }
    if let Some(p) = partition {
        c.push(partition_section("main", p));
    }
    c.write_to(w)
}

/// Reads a `.cgteg` stream back into a graph (+ `main` partition).
#[cfg(test)]
fn read_bundle<R: Read>(r: R, validate: Validate) -> Result<GraphBundle, StoreError> {
    let mut c = Container::read_from(r)?;
    let graph = graph_from_container_owned(&mut c, validate)?;
    let partition = partition_from_container(&c, "main", graph.num_nodes())?;
    Ok(GraphBundle { graph, partition })
}

// ---------------------------------------------------------------------------
// Loader — the one entry point for reading `.cgteg` files from disk

/// Everything a `.cgteg` file holds: the graph, plus every non-CSR section
/// (partition blocks, metadata, scenario-cache extras) decoded owned into
/// `rest`. On a mapped load the graph borrows the CSR arrays from the
/// mapping; `rest` is always heap-owned (those sections are small).
#[derive(Debug)]
pub struct LoadedStore {
    /// The graph, heap-owned or mmap-backed (see [`Graph::is_mapped`]).
    pub graph: Graph,
    /// All remaining sections, CSR removed.
    pub rest: Container,
}

/// Builder-style loader for `.cgteg` files — the single entry point for
/// reading graphs back from disk.
///
/// ```no_run
/// use cgte_graph::store::{Loader, Validate};
/// let g = Loader::open("graph.cgteg")
///     .validate(Validate::Full)
///     .mmap(true)
///     .load_graph()?;
/// # Ok::<(), cgte_graph::store::StoreError>(())
/// ```
///
/// With `mmap(true)` the CSR payloads of a v2 file are borrowed zero-copy
/// from a shared read-only mapping: section checksums are verified against
/// the mapped bytes *before* any borrow is handed out, then the configured
/// [`Validate`] level proves CSR structure on the mapped view — exactly
/// the checks the streamed path runs. The loader silently falls back to
/// the streamed heap decode for v1 files, when the `mmap` syscall fails,
/// or on platforms without `mmap` support (non-unix, 32-bit, or
/// big-endian); corruption and format errors always propagate rather than
/// falling back. [`Graph::is_mapped`] reports which path served a load.
#[derive(Debug, Clone)]
pub struct Loader {
    path: PathBuf,
    validate: Validate,
    mmap: bool,
}

impl Loader {
    /// Starts a loader for the given file with [`Validate::Full`] checking
    /// and the streamed (heap) path; chain [`Loader::validate`] /
    /// [`Loader::mmap`] to adjust.
    pub fn open(path: impl AsRef<Path>) -> Loader {
        Loader {
            path: path.as_ref().to_path_buf(),
            validate: Validate::Full,
            mmap: false,
        }
    }

    /// Sets the CSR validation level (default [`Validate::Full`]).
    pub fn validate(mut self, v: Validate) -> Loader {
        self.validate = v;
        self
    }

    /// Requests the zero-copy mapped path (default off). See the type docs
    /// for when the loader falls back to the heap decode.
    pub fn mmap(mut self, on: bool) -> Loader {
        self.mmap = on;
        self
    }

    /// The file this loader reads.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Scans the file's table of contents without reading section payloads
    /// — `O(metadata)` I/O regardless of graph size.
    pub fn summary(&self) -> Result<StoreSummary, StoreError> {
        scan_summary(BufReader::new(File::open(&self.path)?))
    }

    /// Reads the whole container heap-owned (every section decoded),
    /// ignoring the mmap setting — for callers that need raw sections
    /// rather than a graph.
    pub fn load_container(&self) -> Result<Container, StoreError> {
        Container::read_from(BufReader::new(File::open(&self.path)?))
    }

    /// Loads the graph plus all remaining sections.
    pub fn load(&self) -> Result<LoadedStore, StoreError> {
        #[cfg(cgte_mmap)]
        if self.mmap {
            if let Some(loaded) = self.load_mapped()? {
                return Ok(loaded);
            }
        }
        let mut rest = self.load_container()?;
        let graph = graph_from_container_owned(&mut rest, self.validate)?;
        Ok(LoadedStore { graph, rest })
    }

    /// Loads just the graph.
    pub fn load_graph(&self) -> Result<Graph, StoreError> {
        Ok(self.load()?.graph)
    }

    /// Loads the graph plus its optional `main` partition (what
    /// `cgte ingest` writes and `file =` scenario sources read).
    pub fn load_bundle(&self) -> Result<GraphBundle, StoreError> {
        let loaded = self.load()?;
        let partition = partition_from_container(&loaded.rest, "main", loaded.graph.num_nodes())?;
        Ok(GraphBundle {
            graph: loaded.graph,
            partition,
        })
    }

    /// The mapped path: `Ok(None)` means "fall back to the heap decode"
    /// (v1 file or mmap syscall failure); corruption is an error.
    #[cfg(cgte_mmap)]
    fn load_mapped(&self) -> Result<Option<LoadedStore>, StoreError> {
        let file = File::open(&self.path)?;
        let map = match Mmap::map(&file) {
            Ok(m) => Arc::new(m),
            Err(_) => return Ok(None),
        };
        let bytes = map.bytes();
        let Some(secs) = parse_mapped_sections(bytes)? else {
            return Ok(None); // v1 framing: no alignment guarantee, decode owned
        };
        let find = |name: &str, tag: u8, kind: &str| -> Result<&MappedSection, StoreError> {
            let sec = secs
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| StoreError::Format(format!("missing section {name:?}")))?;
            if sec.tag != tag {
                return Err(StoreError::Format(format!(
                    "section {name:?} is not {kind}"
                )));
            }
            Ok(sec)
        };
        let off = find(SEC_OFFSETS, 2, "u64")?;
        let tgt = find(SEC_TARGETS, 1, "u32")?;
        let csr = MappedCsr::new(
            Arc::clone(&map),
            off.payload_start,
            off.count,
            tgt.payload_start,
            tgt.count,
        )
        .map_err(StoreError::Format)?;
        check_csr(csr.offsets(), csr.targets(), self.validate)?;
        let graph = Graph::from_mapped(csr);
        let mut rest = Container::new();
        for s in &secs {
            if s.name == SEC_OFFSETS || s.name == SEC_TARGETS {
                continue;
            }
            let payload = &bytes[s.payload_start..s.payload_start + s.payload_len];
            let data = SectionData::from_payload(s.tag, s.count, payload)?;
            rest.push(Section {
                name: s.name.clone(),
                data,
            });
        }
        Ok(Some(LoadedStore { graph, rest }))
    }
}

/// Byte ranges of one section inside a mapped v2 file.
#[cfg(cgte_mmap)]
struct MappedSection {
    name: String,
    tag: u8,
    count: usize,
    payload_start: usize,
    payload_len: usize,
}

/// Walks a v2 container's framing over the mapped bytes, verifying every
/// per-section checksum and pad **before** any payload range is handed
/// out; payloads are checked in place, never copied. Returns `Ok(None)`
/// for v1 files (valid, but unaligned — the caller decodes them owned
/// instead).
#[cfg(cgte_mmap)]
fn parse_mapped_sections(bytes: &[u8]) -> Result<Option<Vec<MappedSection>>, StoreError> {
    let mut r = CountingReader {
        inner: bytes,
        pos: 0,
    };
    let (_, framing, nsect) = read_preamble(&mut r, MAGIC, &[VERSION_V1, VERSION])?;
    if framing == Framing::Unaligned {
        return Ok(None);
    }
    // Reserve conservatively: a corrupted (huge) nsect must not translate
    // into a matching allocation — the loop below fails on the first
    // out-of-bounds section read instead.
    let mut secs = Vec::with_capacity(nsect.min(64) as usize);
    for i in 0..nsect {
        let h = read_section_header(&mut r, framing, i)?;
        let payload_start = r.pos as usize;
        let payload = r
            .inner
            .get(..h.byte_len as usize)
            .ok_or_else(|| h.truncated(r.inner.len() as u64))?;
        r.inner = &r.inner[payload.len()..];
        r.pos += h.byte_len;
        h.verify(framing, payload, read_u64(&mut r)?)?;
        secs.push(MappedSection {
            name: h.name,
            tag: h.tag,
            count: h.count as usize,
            payload_start,
            payload_len: h.byte_len as usize,
        });
    }
    Ok(Some(secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample_graph() -> Graph {
        GraphBuilder::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (2, 3)]).unwrap()
    }

    fn temp_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("cgte-store-{tag}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn bundle_round_trips_bit_exactly() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        let back = read_bundle(&buf[..], Validate::Full).unwrap();
        assert_eq!(back.graph, g);
        assert_eq!(back.graph.csr_offsets(), g.csr_offsets());
        assert_eq!(back.graph.csr_neighbors(), g.csr_neighbors());
        assert_eq!(back.partition.as_ref(), Some(&p));
    }

    #[test]
    fn bundle_without_partition() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, None).unwrap();
        let back = read_bundle(&buf[..], Validate::Trusted).unwrap();
        assert_eq!(back.graph, g);
        assert!(back.partition.is_none());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new(0).build();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, None).unwrap();
        let back = read_bundle(&buf[..], Validate::Full).unwrap();
        assert_eq!(back.graph.num_nodes(), 0);
        assert_eq!(back.graph.num_edges(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_bundle(&b"NOTCGTEG AT ALL"[..], Validate::Full).unwrap_err();
        assert!(matches!(err, StoreError::Format(_)), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, None).unwrap();
        buf[6] = 99; // version low byte
        let err = read_bundle(&buf[..], Validate::Full).unwrap_err();
        match err {
            StoreError::Format(m) => assert!(m.contains("version"), "{m}"),
            other => panic!("expected format error, got {other}"),
        }
    }

    #[test]
    fn every_truncation_point_fails_cleanly() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        for len in 0..buf.len() {
            assert!(
                read_bundle(&buf[..len], Validate::Full).is_err(),
                "truncation at {len} bytes must fail"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_fails_cleanly() {
        // Exhaustive bit-rot sweep: flipping any byte must produce an
        // error (usually a checksum mismatch), never a panic or a
        // silently different graph.
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            match read_bundle(&bad[..], Validate::Full) {
                Err(_) => {}
                Ok(b) => {
                    // A flip confined to a checksum-covered payload must be
                    // caught; the only acceptable Ok is a flip that somehow
                    // reconstructs the identical input (impossible for XOR
                    // with 0xFF), so any Ok must still equal the original.
                    assert_eq!(b.graph, g, "byte {i} flip silently changed the graph");
                    assert_eq!(b.partition.as_ref(), Some(&p));
                    panic!("byte {i} flip was not detected");
                }
            }
        }
    }

    #[test]
    fn corrupted_checksum_reports_section() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, None).unwrap();
        // Corrupt one payload byte of the final section (its checksum is
        // the last 8 bytes).
        let idx = buf.len() - 12;
        buf[idx] ^= 0x01;
        let err = read_bundle(&buf[..], Validate::Full).unwrap_err();
        assert!(matches!(err, StoreError::Checksum { .. }), "{err}");
    }

    #[test]
    fn asymmetric_csr_is_rejected_by_full_validation() {
        // Hand-craft a container whose lists are sorted and in range but
        // not symmetric: 0 -> 1 without 1 -> 0.
        let mut c = Container::new();
        c.push(Section::u64s(SEC_OFFSETS, vec![0, 1, 1, 2]));
        c.push(Section::u32s(SEC_TARGETS, vec![1, 0]));
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let parsed = Container::read_from(&buf[..]).unwrap();
        let err = graph_from_container(&parsed, Validate::Full).unwrap_err();
        assert!(matches!(err, StoreError::Graph(_)), "{err}");
    }

    #[test]
    fn unsorted_or_out_of_range_targets_rejected() {
        for targets in [vec![2, 1, 0, 0], vec![9, 9, 0, 0]] {
            let mut c = Container::new();
            c.push(Section::u64s(SEC_OFFSETS, vec![0, 2, 3, 4]));
            c.push(Section::u32s(SEC_TARGETS, targets));
            let mut buf = Vec::new();
            c.write_to(&mut buf).unwrap();
            let parsed = Container::read_from(&buf[..]).unwrap();
            assert!(graph_from_container(&parsed, Validate::Structure).is_err());
        }
    }

    #[test]
    fn self_loop_rejected() {
        let mut c = Container::new();
        c.push(Section::u64s(SEC_OFFSETS, vec![0, 1, 2]));
        c.push(Section::u32s(SEC_TARGETS, vec![0, 0]));
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let parsed = Container::read_from(&buf[..]).unwrap();
        let err = graph_from_container(&parsed, Validate::Structure).unwrap_err();
        match err {
            StoreError::Graph(m) => assert!(m.contains("self-loop"), "{m}"),
            other => panic!("expected graph error, got {other}"),
        }
    }

    #[test]
    fn partition_block_mismatch_rejected() {
        let g = sample_graph();
        let mut c = Container::new();
        for s in graph_sections(&g) {
            c.push(s);
        }
        // Partition covering the wrong node count.
        let p = Partition::trivial(3);
        c.push(partition_section("main", &p));
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let parsed = Container::read_from(&buf[..]).unwrap();
        let graph = graph_from_container(&parsed, Validate::Full).unwrap();
        assert!(partition_from_container(&parsed, "main", graph.num_nodes()).is_err());
    }

    #[test]
    fn generic_sections_round_trip() {
        let mut c = Container::new();
        c.push(Section::f64s("floats", vec![1.5, f64::NAN, -0.0]));
        c.push(Section::string("meta.kind", "facebook"));
        c.push(Section::u64s("counts", vec![3, 2]));
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let back = Container::read_from(&buf[..]).unwrap();
        let f = back.f64s("floats").unwrap();
        assert_eq!(f[0], 1.5);
        assert!(f[1].is_nan());
        assert_eq!(f[2].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.string("meta.kind").unwrap(), "facebook");
        assert_eq!(back.u64s("counts").unwrap(), &[3, 2]);
        assert!(back.get("absent").is_none());
        assert!(back.u32s("counts").is_err(), "type mismatch is an error");
    }

    fn v1_bundle_bytes(g: &Graph, p: Option<&Partition>) -> Vec<u8> {
        let mut c = Container::new();
        for s in graph_sections(g) {
            c.push(s);
        }
        if let Some(p) = p {
            c.push(partition_section("main", p));
        }
        let mut buf = Vec::new();
        // write_to_magic keeps the legacy framing: no pads, old checksum.
        c.write_to_magic(&mut buf, MAGIC, VERSION_V1).unwrap();
        buf
    }

    #[test]
    fn v1_files_remain_readable() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let buf = v1_bundle_bytes(&g, Some(&p));
        let back = read_bundle(&buf[..], Validate::Full).unwrap();
        assert_eq!(back.graph, g);
        assert_eq!(back.partition.as_ref(), Some(&p));
        // The mapped path must fall back to the heap decode for v1.
        let path = temp_file("v1compat", &buf);
        let bundle = Loader::open(&path).mmap(true).load_bundle().unwrap();
        assert_eq!(bundle.graph, g);
        assert!(!bundle.graph.is_mapped());
        assert_eq!(
            Loader::open(&path).summary().unwrap().version,
            VERSION_V1,
            "summary reports the on-disk version"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn framing_follows_the_version_under_any_magic() {
        // The 3-byte section leaves the next header unaligned, so the two
        // framings differ in pads as well as checksums.
        let mut c = Container::new();
        c.push(Section::bytes("odd", vec![1, 2, 3]));
        c.push(Section::u64s("counts", vec![7, 8]));
        c.push(Section::f64s("floats", vec![1.5, -0.0]));
        for magic in [MAGIC, b"CGTES\0"] {
            for version in [VERSION_V1, VERSION] {
                let mut buf = Vec::new();
                c.write_to_magic(&mut buf, magic, version).unwrap();
                let back = Container::read_from_magic(&buf[..], magic, version).unwrap();
                assert_eq!(back, c, "{magic:?} v{version} via read_from_magic");
                if magic == MAGIC {
                    let back = Container::read_from(&buf[..]).unwrap();
                    assert_eq!(back, c, "v{version} via read_from");
                }
            }
        }
        let mut v2 = Vec::new();
        c.write_to(&mut v2).unwrap();
        assert_eq!(
            Container::read_from_magic(&v2[..], MAGIC, VERSION).unwrap(),
            c
        );
        let mut v2_magic = Vec::new();
        c.write_to_magic(&mut v2_magic, MAGIC, VERSION).unwrap();
        assert_eq!(v2_magic, v2, "write_to is write_to_magic(MAGIC, VERSION)");
        // A version with no framing is refused both ways.
        assert!(c.write_to_magic(&mut Vec::new(), MAGIC, 3).is_err());
        let mut v3 = v2.clone();
        v3[6] = 3;
        for err in [
            Container::read_from(&v3[..]).unwrap_err(),
            Container::read_from_magic(&v3[..], MAGIC, 3).unwrap_err(),
        ] {
            assert!(
                matches!(&err, StoreError::Format(m) if m.contains("version")),
                "{err}"
            );
        }
    }

    #[test]
    fn summary_rejects_every_truncation_and_a_flipped_pad() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut c = Container::new();
        for s in graph_sections(&g) {
            c.push(s);
        }
        c.push(partition_section("main", &p));
        c.push(Section::string("meta.kind", "bundle"));
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let path = temp_file("summary-sweep", &buf);
        assert!(Loader::open(&path).summary().is_ok());
        for len in 0..buf.len() {
            std::fs::write(&path, &buf[..len]).unwrap();
            assert!(
                Loader::open(&path).summary().is_err(),
                "summary of a file truncated at {len} bytes must fail"
            );
        }
        // The first header ends unaligned: its pad sits right after it.
        let pad_at = 12 + 2 + SEC_OFFSETS.len() + 1 + 8;
        assert_ne!(pad_at % 8, 0, "fixture must have a nonempty first pad");
        let mut bad = buf.clone();
        bad[pad_at] = 1;
        std::fs::write(&path, &bad).unwrap();
        match Loader::open(&path).summary() {
            Err(StoreError::Format(m)) => assert!(m.contains("pad"), "{m}"),
            other => panic!("a flipped pad byte must be a format error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_payloads_start_on_8_byte_boundaries() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), VERSION);
        let nsect = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        let mut pos = 12usize;
        for _ in 0..nsect {
            let name_len = u16::from_le_bytes(buf[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2 + name_len;
            let tag = buf[pos];
            pos += 1;
            let count = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap()) as usize;
            pos += 8;
            let elem: usize = match tag {
                1 => 4,
                2 | 3 => 8,
                4 => 1,
                other => panic!("unknown tag {other}"),
            };
            let pad = (8 - pos % 8) % 8;
            assert!(buf[pos..pos + pad].iter().all(|&b| b == 0), "pad not zero");
            pos += pad;
            assert_eq!(pos % 8, 0, "payload must start 8-aligned");
            pos += count * elem + 8;
        }
        assert_eq!(pos, buf.len(), "walker must consume the whole file");
    }

    #[test]
    fn loader_summary_reports_toc() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        let path = temp_file("summary", &buf);
        let s = Loader::open(&path).summary().unwrap();
        assert_eq!(s.version, VERSION);
        assert_eq!(s.num_nodes, Some(6));
        assert_eq!(s.num_edges, Some(6));
        assert_eq!(s.partitions, vec!["main".to_string()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trusted_skips_structural_checks() {
        // Unsorted targets with consistent framing: Trusted (checksums +
        // O(1) checks) accepts, Structure and Full reject.
        let mut c = Container::new();
        c.push(Section::u64s(SEC_OFFSETS, vec![0, 2, 3, 4]));
        c.push(Section::u32s(SEC_TARGETS, vec![2, 1, 0, 0]));
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let parsed = Container::read_from(&buf[..]).unwrap();
        assert!(graph_from_container(&parsed, Validate::Trusted).is_ok());
        assert!(graph_from_container(&parsed, Validate::Structure).is_err());
        assert!(graph_from_container(&parsed, Validate::Full).is_err());
    }

    #[cfg(cgte_mmap)]
    #[test]
    fn mapped_load_matches_heap_and_built() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        let path = temp_file("mapped-eq", &buf);
        let heap = Loader::open(&path).load_bundle().unwrap();
        let mapped = Loader::open(&path).mmap(true).load_bundle().unwrap();
        assert!(!heap.graph.is_mapped());
        assert!(mapped.graph.is_mapped());
        assert_eq!(mapped.graph, g);
        assert_eq!(mapped.graph, heap.graph);
        assert_eq!(mapped.graph.csr_offsets(), g.csr_offsets());
        assert_eq!(mapped.graph.csr_neighbors(), g.csr_neighbors());
        assert_eq!(mapped.partition.as_ref(), Some(&p));
        // Non-CSR sections arrive owned in `rest` on both paths.
        let loaded = Loader::open(&path).mmap(true).load().unwrap();
        assert!(loaded.rest.get("part.main").is_some());
        assert!(loaded.rest.get(SEC_OFFSETS).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(cgte_mmap)]
    #[test]
    fn mapped_empty_graph_round_trips() {
        let g = GraphBuilder::new(0).build();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, None).unwrap();
        let path = temp_file("mapped-empty", &buf);
        let back = Loader::open(&path).mmap(true).load_graph().unwrap();
        assert!(back.is_mapped());
        assert_eq!(back.num_nodes(), 0);
        assert_eq!(back.num_edges(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(cgte_mmap)]
    #[test]
    fn mapped_every_truncation_point_fails_cleanly() {
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        let path = temp_file("mapped-trunc", b"");
        for len in 0..buf.len() {
            std::fs::write(&path, &buf[..len]).unwrap();
            assert!(
                Loader::open(&path).mmap(true).load_bundle().is_err(),
                "mapped truncation at {len} bytes must fail"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[cfg(cgte_mmap)]
    #[test]
    fn mapped_every_single_byte_flip_fails_cleanly() {
        // The mapped twin of the streamed bit-rot sweep: any flipped byte
        // (framing, pad, payload or checksum) must surface as an error
        // before a Graph borrowing the mapping is handed out.
        let g = sample_graph();
        let p = Partition::from_assignments(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let mut buf = Vec::new();
        write_bundle(&mut buf, &g, Some(&p)).unwrap();
        let path = temp_file("mapped-flip", b"");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                Loader::open(&path).mmap(true).load_bundle().is_err(),
                "mapped byte {i} flip was not detected"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
