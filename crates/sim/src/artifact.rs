//! Durable bitstream artifacts: a versioned, self-describing binary
//! encoding of a [`Bitstream`].
//!
//! The `.capg` page format ([`crate::pages`]) models what the *loader*
//! streams into the cache: location-ordered huge pages, partitions
//! physically sorted. This module is the complementary *artifact* format —
//! a faithful, byte-exact image of the compiler's output (partition order
//! preserved, route tables and geometry included) that can be written to
//! disk, shipped to another machine, and reloaded without recompiling.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CAAR"
//!      4     2  format version (currently 1)
//!      6     1  design-point tag (0 = CA_P, 1 = CA_S)
//!      7     1  reserved (0)
//!      8     8  FNV-1a 64 checksum of the payload
//!     16     8  payload length in bytes
//!     24     …  payload: geometry, partitions, routes
//! ```
//!
//! Compatibility rules: decoders reject unknown magic, versions they do
//! not implement, payloads whose checksum disagrees, and trailing bytes.
//! Any change to the payload layout bumps the version; version 1 decoders
//! never reinterpret bytes of a future version.
//!
//! The 24-byte header is not specific to bitstreams: [`seal`] writes it and
//! [`unseal`] checks it for any (magic, version, two tag bytes, payload),
//! and the program artifact (`CAPR`) that wraps this one is sealed by the
//! same two functions. Likewise [`Reader`], [`put_u32`] and [`put_u64`] are
//! the one bounds-checked little-endian cursor and writers behind both
//! artifact payloads and the serving wire protocol.

use crate::bitstream::{Bitstream, PartitionImage, Route, RouteVia};
use crate::geometry::{CacheGeometry, DesignKind, PartitionLocation};
use crate::mask::Mask256;
use ca_automata::{CharClass, ReportCode};
use std::fmt;

/// Magic bytes introducing a bitstream artifact.
pub const ARTIFACT_MAGIC: &[u8; 4] = b"CAAR";

/// Current artifact format version.
pub const ARTIFACT_VERSION: u16 = 1;

/// Failures while decoding an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The bytes do not start with [`ARTIFACT_MAGIC`].
    BadMagic,
    /// The artifact was written by a format version this build does not
    /// implement.
    UnsupportedVersion(u16),
    /// The payload checksum disagrees with the header (corruption or
    /// truncation in transit).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the payload actually read.
        computed: u64,
    },
    /// Structurally invalid content (truncated fields, out-of-range tags,
    /// trailing bytes).
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a cache-automaton artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "artifact version {v} is not supported (this build reads {ARTIFACT_VERSION})"
                )
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch (header {stored:#018x}, payload {computed:#018x})"
            ),
            ArtifactError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// FNV-1a 64-bit checksum (the artifact format's integrity hash).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_mask(out: &mut Vec<u8>, mask: &Mask256) {
    for w in mask.to_words() {
        put_u64(out, w);
    }
}

/// A [`Reader`] ran past the end of its buffer; carries what was being
/// read. Each format converts it into its own malformed-input error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated(pub &'static str);

impl From<Truncated> for ArtifactError {
    fn from(t: Truncated) -> ArtifactError {
        ArtifactError::Malformed(format!("truncated {}", t.0))
    }
}

/// Bounds-checked little-endian cursor over a byte slice: the one reader
/// behind the CAAR and CAPR payloads and the wire-frame payloads. Every
/// accessor either consumes exactly what it returns or fails with
/// [`Truncated`]; none can panic on short or hostile input.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Truncated`] (naming `what`) when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], Truncated> {
        if self.rest.len() < n {
            return Err(Truncated(what));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// The next `N` bytes as an array (feed it to `from_le_bytes`).
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than `N` bytes remain.
    #[inline]
    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], Truncated> {
        Ok(self.take(N, what)?.try_into().expect("take returned N bytes"))
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// [`Truncated`] at the end of the buffer.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, Truncated> {
        Ok(self.take(1, what)?[0])
    }

    /// The next little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 2 bytes remain.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// The next little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 4 bytes remain.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// The next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`Truncated`] when fewer than 8 bytes remain.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// Everything not yet consumed; the cursor is left empty.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }
}

fn read_mask(r: &mut Reader<'_>, what: &'static str) -> Result<Mask256, Truncated> {
    let mut words = [0u64; 4];
    for w in &mut words {
        *w = r.u64(what)?;
    }
    Ok(Mask256::from_words(words))
}

/// Bytes of the sealed-container header that precedes every payload.
pub const SEAL_HEADER_LEN: usize = 24;

/// Wraps `payload` in the 24-byte sealed-container header both artifact
/// formats share: `magic`, `version`, two format-defined `tag` bytes, the
/// FNV-1a 64 checksum of the payload, and the payload length.
pub fn seal(magic: &[u8; 4], version: u16, tag: [u8; 2], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEAL_HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&tag);
    put_u64(&mut out, fnv1a_64(payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Checks a container written by [`seal`] and returns its tag bytes and
/// payload.
///
/// # Errors
///
/// [`ArtifactError::BadMagic`] unless `bytes` start with `magic`,
/// [`ArtifactError::UnsupportedVersion`] for any version but `version`,
/// [`ArtifactError::Malformed`] for a short header, a payload shorter than
/// the header claims or trailing bytes, and
/// [`ArtifactError::ChecksumMismatch`] when the payload was altered.
pub fn unseal<'a>(
    magic: &[u8; 4],
    version: u16,
    bytes: &'a [u8],
) -> Result<([u8; 2], &'a [u8]), ArtifactError> {
    let mut r = Reader::new(bytes);
    if r.take(4, "magic").ok() != Some(magic.as_slice()) {
        return Err(ArtifactError::BadMagic);
    }
    let found = r.u16("header")?;
    if found != version {
        return Err(ArtifactError::UnsupportedVersion(found));
    }
    let tag = r.array("header")?;
    let stored = r.u64("header")?;
    let len = usize::try_from(r.u64("header")?)
        .map_err(|_| ArtifactError::Malformed("payload length exceeds usize".into()))?;
    let payload = r.take(len, "payload (shorter than the header claims)")?;
    if !r.is_empty() {
        return Err(ArtifactError::Malformed("trailing bytes after payload".into()));
    }
    let computed = fnv1a_64(payload);
    if computed != stored {
        return Err(ArtifactError::ChecksumMismatch { stored, computed });
    }
    Ok((tag, payload))
}

fn encode_payload(bs: &Bitstream) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + bs.partitions.len() * 4096 + bs.routes.len() * 11);
    let g = &bs.geometry;
    for v in [
        g.slices,
        g.automata_ways,
        g.subarrays_per_way,
        g.partitions_per_subarray,
        g.match_chunks as usize,
        g.gswitch4_ways,
        g.g1_ports,
        g.g4_ports,
    ] {
        put_u32(&mut p, v as u32);
    }
    put_u32(&mut p, bs.partitions.len() as u32);
    for img in &bs.partitions {
        for v in [img.location.slice, img.location.way, img.location.subarray, img.location.half] {
            put_u32(&mut p, v);
        }
        put_u32(&mut p, img.labels.len() as u32);
        for label in &img.labels {
            for w in label.to_bits() {
                put_u64(&mut p, w);
            }
        }
        for row in &img.local {
            put_mask(&mut p, row);
        }
        put_u32(&mut p, img.import_dest.len() as u32);
        for row in &img.import_dest {
            put_mask(&mut p, row);
        }
        put_mask(&mut p, &img.start_all);
        put_mask(&mut p, &img.start_sod);
        put_u32(&mut p, img.reports.len() as u32);
        for &(col, code) in &img.reports {
            p.push(col);
            put_u32(&mut p, code.0);
        }
    }
    put_u32(&mut p, bs.routes.len() as u32);
    for r in &bs.routes {
        put_u32(&mut p, r.src_partition);
        p.push(r.src_ste);
        p.push(match r.via {
            RouteVia::G1 => 0,
            RouteVia::G4 => 1,
        });
        put_u32(&mut p, r.dst_partition);
        p.push(r.dst_port);
    }
    p
}

/// A `u32` count of `what`, refused when it exceeds what the architecture
/// allows — before anything is allocated or looped over on its say-so.
fn bounded(r: &mut Reader<'_>, what: &'static str, max: usize) -> Result<usize, ArtifactError> {
    let count = r.u32(what)? as usize;
    if count > max {
        return Err(ArtifactError::Malformed(format!(
            "{count} {what} exceed the maximum of {max}"
        )));
    }
    Ok(count)
}

fn decode_payload(design: DesignKind, payload: &[u8]) -> Result<Bitstream, ArtifactError> {
    let mut r = Reader::new(payload);
    let mut geo = [0usize; 8];
    for v in &mut geo {
        *v = r.u32("geometry field")? as usize;
    }
    let geometry = CacheGeometry {
        slices: geo[0],
        automata_ways: geo[1],
        subarrays_per_way: geo[2],
        partitions_per_subarray: geo[3],
        match_chunks: geo[4] as u32,
        gswitch4_ways: geo[5],
        g1_ports: geo[6],
        g4_ports: geo[7],
    };
    geometry.validate().map_err(ArtifactError::Malformed)?;
    let n_partitions = bounded(&mut r, "partitions", geometry.total_partitions())?;
    let mut partitions = Vec::with_capacity(n_partitions);
    for _ in 0..n_partitions {
        let mut loc = [0u32; 4];
        for v in loc.iter_mut() {
            *v = r.u32("location")?;
        }
        let location =
            PartitionLocation { slice: loc[0], way: loc[1], subarray: loc[2], half: loc[3] };
        let mut img = PartitionImage::new(location);
        let n_labels = bounded(&mut r, "labels", crate::geometry::STES_PER_PARTITION)?;
        for _ in 0..n_labels {
            img.labels.push(CharClass::from_bits(read_mask(&mut r, "label")?.to_words()));
        }
        for _ in 0..n_labels {
            img.local.push(read_mask(&mut r, "local-switch row")?);
        }
        let n_imports = bounded(&mut r, "import ports", geometry.g1_ports + geometry.g4_ports)?;
        for _ in 0..n_imports {
            img.import_dest.push(read_mask(&mut r, "import row")?);
        }
        img.start_all = read_mask(&mut r, "start-all vector")?;
        img.start_sod = read_mask(&mut r, "start-of-data vector")?;
        let n_reports = bounded(&mut r, "reports", crate::geometry::STES_PER_PARTITION)?;
        for _ in 0..n_reports {
            let col = r.u8("report column")?;
            let code = r.u32("report code")?;
            img.reports.push((col, ReportCode(code)));
        }
        partitions.push(img);
    }
    let n_routes = r.u32("route count")? as usize;
    let mut routes = Vec::with_capacity(n_routes.min(1 << 20));
    for _ in 0..n_routes {
        let src_partition = r.u32("route source")?;
        let src_ste = r.u8("route source STE")?;
        let via = match r.u8("route via")? {
            0 => RouteVia::G1,
            1 => RouteVia::G4,
            other => {
                return Err(ArtifactError::Malformed(format!("unknown route via tag {other}")))
            }
        };
        let dst_partition = r.u32("route destination")?;
        let dst_port = r.u8("route destination port")?;
        routes.push(Route { src_partition, src_ste, via, dst_partition, dst_port });
    }
    if !r.is_empty() {
        return Err(ArtifactError::Malformed("trailing bytes after route table".into()));
    }
    Ok(Bitstream { design, geometry, partitions, routes })
}

impl Bitstream {
    /// Encodes the bitstream into the versioned artifact byte format.
    ///
    /// The encoding is canonical: equal bitstreams produce byte-identical
    /// artifacts, so artifact bytes can be compared to prove that two
    /// compilations agree.
    pub fn encode(&self) -> Vec<u8> {
        let design_tag = match self.design {
            DesignKind::Performance => 0,
            DesignKind::Space => 1,
        };
        seal(ARTIFACT_MAGIC, ARTIFACT_VERSION, [design_tag, 0], &encode_payload(self))
    }

    /// Decodes an artifact produced by [`Bitstream::encode`].
    ///
    /// The result is bit-faithful to what was encoded, and the decoder
    /// re-runs [`Bitstream::validate`] before returning, so a hand-edited
    /// artifact that passes the checksum but violates an architectural
    /// constraint (duplicate report columns, illegal routes, …) is
    /// rejected here instead of panicking mid-scan.
    ///
    /// # Errors
    ///
    /// [`ArtifactError`] on bad magic, unsupported version, checksum
    /// mismatch, malformed payload, or a payload that fails
    /// [`Bitstream::validate`].
    pub fn decode(bytes: &[u8]) -> Result<Bitstream, ArtifactError> {
        let (tag, payload) = unseal(ARTIFACT_MAGIC, ARTIFACT_VERSION, bytes)?;
        let design = match tag[0] {
            0 => DesignKind::Performance,
            1 => DesignKind::Space,
            other => return Err(ArtifactError::Malformed(format!("unknown design tag {other}"))),
        };
        let bs = decode_payload(design, payload)?;
        bs.validate().map_err(|e| ArtifactError::Malformed(e.to_string()))?;
        Ok(bs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::STES_PER_PARTITION;

    fn sample() -> Bitstream {
        let geometry = CacheGeometry::for_design(DesignKind::Space, 2);
        let mut p0 = PartitionImage::new(PartitionLocation::from_index(&geometry, 5));
        p0.labels = vec![CharClass::byte(b'a'), CharClass::range(b'0', b'9')];
        p0.local = vec![[1u8].into_iter().collect(), Mask256::ZERO];
        p0.start_all.set(0);
        p0.reports.push((1, ReportCode(7)));
        let mut p1 = PartitionImage::new(PartitionLocation::from_index(&geometry, 0));
        p1.labels = vec![CharClass::byte(b'z')];
        p1.local = vec![Mask256::ZERO];
        p1.start_sod.set(0);
        p1.import_dest = vec![[0u8].into_iter().collect()];
        let routes = vec![Route {
            src_partition: 0,
            src_ste: 0,
            via: RouteVia::G1,
            dst_partition: 1,
            dst_port: 0,
        }];
        Bitstream { design: DesignKind::Space, geometry, partitions: vec![p0, p1], routes }
    }

    #[test]
    fn roundtrip_is_exact() {
        let bs = sample();
        let bytes = bs.encode();
        let back = Bitstream::decode(&bytes).unwrap();
        // byte-exact: partition order, routes, geometry all preserved
        assert_eq!(back, bs);
        // and canonical: re-encoding reproduces the same bytes
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn empty_bitstream_roundtrips() {
        let bs = Bitstream {
            design: DesignKind::Performance,
            geometry: CacheGeometry::for_design(DesignKind::Performance, 8),
            partitions: Vec::new(),
            routes: Vec::new(),
        };
        assert_eq!(Bitstream::decode(&bs.encode()).unwrap(), bs);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(Bitstream::decode(&bytes).unwrap_err(), ArtifactError::BadMagic);
        assert!(Bitstream::decode(b"CA").is_err());
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample().encode();
        bytes[4] = 0xff;
        assert!(matches!(
            Bitstream::decode(&bytes).unwrap_err(),
            ArtifactError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let bytes = sample().encode();
        for at in [24, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let err = Bitstream::decode(&bad).unwrap_err();
            assert!(matches!(err, ArtifactError::ChecksumMismatch { .. }), "flip at {at}: {err}");
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let bytes = sample().encode();
        let mut short = bytes.clone();
        short.truncate(bytes.len() - 5);
        assert!(Bitstream::decode(&short).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(Bitstream::decode(&long).is_err());
        assert!(Bitstream::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn implausible_counts_rejected_without_checksum_help() {
        // construct a payload with an absurd label count but a valid
        // checksum, to prove the structural bounds trip independently
        let bs = sample();
        let mut payload = encode_payload(&bs);
        // label count of partition 0 sits after 8 geometry words, the
        // partition count and 4 location words
        let at = 8 * 4 + 4 + 4 * 4;
        payload[at..at + 4].copy_from_slice(&((STES_PER_PARTITION as u32) + 1).to_le_bytes());
        let err = decode_payload(bs.design, &payload).unwrap_err();
        assert!(matches!(err, ArtifactError::Malformed(_)), "{err}");
    }

    #[test]
    fn architecturally_invalid_artifact_rejected_at_decode() {
        // A hand-edited artifact with a valid checksum but a duplicate
        // report column must fail at load time, not mid-scan.
        let mut bs = sample();
        bs.partitions[0].reports.push((1, ReportCode(9)));
        let bytes = seal(ARTIFACT_MAGIC, ARTIFACT_VERSION, [1, 0], &encode_payload(&bs));
        let err = Bitstream::decode(&bytes).unwrap_err();
        match err {
            ArtifactError::Malformed(msg) => {
                assert!(msg.contains("duplicate report column"), "{msg}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn checksum_is_stable() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
