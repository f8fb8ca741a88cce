//! Serializable program artifacts: compile once, run anywhere (on this
//! fabric).
//!
//! A [`Program`] artifact wraps the versioned bitstream encoding from
//! [`ca_sim::artifact`] with the program-level metadata needed to
//! reconstruct an identical [`Program`] in a fresh process: mapping
//! statistics and the state → (partition, column) map. Pipeline timings
//! are diagnostic and deliberately not serialized — a loaded program's
//! [`MappingStats`] compares equal to the compiling
//! process's because equality excludes timings.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    [u8; 4]   "CAPR"
//! version  u16       PROGRAM_ARTIFACT_VERSION
//! reserved u16       zero
//! checksum u64       FNV-1a 64 over the payload
//! len      u64       payload length in bytes
//! payload:
//!   stats      10 × u64   states, components, largest_cc, partitions,
//!                         utilization, g1, g4, kway, retries, seed
//!   state_map  u32 count, then (u32 partition, u8 column) per state
//!   bitstream  u64 length, then a ca-sim "CAAR" artifact blob
//! ```
//!
//! The 24 header bytes are the sealed container of [`ca_sim::artifact`]
//! (`seal` / `unseal`), the same one the embedded bitstream blob uses — so
//! the blob carries its own magic, version, design tag and checksum, and
//! corruption is caught at whichever layer it hits.

use crate::{CaError, CompiledAutomaton, MappingStats, Program};
use ca_compiler::PassTimings;
use ca_sim::artifact::{put_u32, put_u64, seal, unseal, Reader};
use ca_sim::{ArtifactError, Bitstream};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes opening a program artifact.
pub const PROGRAM_ARTIFACT_MAGIC: &[u8; 4] = b"CAPR";

/// Current program-artifact format version.
///
/// Decoders reject other versions ([`ArtifactError::UnsupportedVersion`]);
/// compatible extensions must bump this and keep decoding old versions.
pub const PROGRAM_ARTIFACT_VERSION: u16 = 1;

/// Monotonic discriminator for temp-file names, so concurrent writers in
/// one process never collide.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Durably writes `bytes` to `path`: the data lands in a uniquely named
/// temp file *in the target directory* (rename across filesystems is not
/// atomic), is flushed with `sync_all`, then atomically renamed into
/// place. A crash at any point leaves either the old file or the new one —
/// never a torn artifact. The temp file is cleaned up on failure.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = std::ffi::OsString::from(format!(
        ".{}.{}.tmp-",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    tmp_name.push(name);
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

fn decode_program(bytes: &[u8]) -> Result<Program, ArtifactError> {
    // The two tag bytes are reserved (written as zero, ignored on read).
    let (_, payload) = unseal(PROGRAM_ARTIFACT_MAGIC, PROGRAM_ARTIFACT_VERSION, bytes)?;
    let mut r = Reader::new(payload);
    let mut fields = [0u64; 9];
    for field in &mut fields {
        *field = r.u64("mapping stats")?;
    }
    let seed = r.u64("seed")?;
    let stats = MappingStats {
        states: fields[0] as usize,
        connected_components: fields[1] as usize,
        largest_cc: fields[2] as usize,
        partitions_used: fields[3] as usize,
        utilization_bytes: fields[4] as usize,
        g1_routes: fields[5] as usize,
        g4_routes: fields[6] as usize,
        kway_invocations: fields[7] as usize,
        retries: fields[8] as usize,
        seed,
        timings: PassTimings::default(),
    };
    let map_len = r.u32("state map length")? as usize;
    if map_len != stats.states {
        return Err(ArtifactError::Malformed(format!(
            "state map covers {map_len} states but stats claim {}",
            stats.states
        )));
    }
    let mut state_map = Vec::with_capacity(map_len.min(r.remaining() / 5));
    for _ in 0..map_len {
        let pid = r.u32("state map partition")?;
        let col = r.u8("state map column")?;
        state_map.push((pid, col));
    }
    let blob_len = usize::try_from(r.u64("bitstream length")?)
        .map_err(|_| ArtifactError::Malformed("bitstream length exceeds usize".into()))?;
    let blob = r.take(blob_len, "bitstream blob")?;
    if !r.is_empty() {
        return Err(ArtifactError::Malformed("payload longer than its contents".into()));
    }
    let bitstream = Bitstream::decode(blob)?;
    if bitstream.partitions.len() != stats.partitions_used {
        return Err(ArtifactError::Malformed(format!(
            "bitstream has {} partitions but stats claim {}",
            bitstream.partitions.len(),
            stats.partitions_used
        )));
    }
    for &(pid, _) in &state_map {
        if pid as usize >= bitstream.partitions.len() {
            return Err(ArtifactError::Malformed(format!(
                "state map references partition {pid} of {}",
                bitstream.partitions.len()
            )));
        }
    }
    let compiled = CompiledAutomaton { bitstream, stats, state_map };
    Ok(Program::new(compiled, ca_telemetry::Telemetry::disabled()))
}

impl Program {
    /// Serializes the program to its versioned binary artifact.
    ///
    /// Canonical: equal programs produce byte-identical artifacts, so a
    /// round-trip through [`Program::from_bytes`] re-encodes to the same
    /// bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let compiled = self.compiled();
        let stats = &compiled.stats;
        let mut payload = Vec::new();
        for v in [
            stats.states,
            stats.connected_components,
            stats.largest_cc,
            stats.partitions_used,
            stats.utilization_bytes,
            stats.g1_routes,
            stats.g4_routes,
            stats.kway_invocations,
            stats.retries,
        ] {
            put_u64(&mut payload, v as u64);
        }
        put_u64(&mut payload, stats.seed);
        put_u32(&mut payload, compiled.state_map.len() as u32);
        for &(pid, col) in &compiled.state_map {
            put_u32(&mut payload, pid);
            payload.push(col);
        }
        let blob = compiled.bitstream.encode();
        put_u64(&mut payload, blob.len() as u64);
        payload.extend_from_slice(&blob);
        seal(PROGRAM_ARTIFACT_MAGIC, PROGRAM_ARTIFACT_VERSION, [0, 0], &payload)
    }

    /// Reconstructs a program from artifact bytes.
    ///
    /// # Errors
    ///
    /// [`CaError::Artifact`] for wrong magic, an unsupported version, a
    /// checksum mismatch, or structural damage (in the program framing or
    /// the embedded bitstream blob).
    pub fn from_bytes(bytes: &[u8]) -> Result<Program, CaError> {
        decode_program(bytes).map_err(CaError::Artifact)
    }

    /// Writes the program artifact to `path` durably: the bytes go to a
    /// temp file in the target directory, are `sync_all`ed, and are then
    /// atomically renamed into place — a crash mid-save can never leave a
    /// torn `CAPR` file where readers expect a whole one.
    ///
    /// # Errors
    ///
    /// [`CaError::Io`] on filesystem failure.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), CaError> {
        write_atomic(path.as_ref(), &self.to_bytes())?;
        Ok(())
    }

    /// Loads a program artifact previously written by [`Program::save`].
    ///
    /// # Errors
    ///
    /// [`CaError::Io`] on filesystem failure, [`CaError::Artifact`] if the
    /// bytes are not a valid program artifact.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Program, CaError> {
        Program::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheAutomaton;

    fn sample() -> Program {
        CacheAutomaton::new().compile_patterns(&["art[io]fact", "save", "lo+ad"]).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let program = sample();
        let bytes = program.to_bytes();
        let loaded = Program::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.design(), program.design());
        assert_eq!(loaded.stats(), program.stats());
        assert_eq!(loaded.compiled(), program.compiled());
        // canonical: re-encoding is byte-identical
        assert_eq!(loaded.to_bytes(), bytes);
        // and it runs identically
        let input = b"save the artifact, loooad the artofact";
        let a = program.run(input);
        let b = loaded.run(input);
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.exec.cycles, b.exec.cycles);
    }

    #[test]
    fn save_load_files() {
        let dir = std::env::temp_dir().join("ca-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.capr");
        let program = sample();
        program.save(&path).unwrap();
        let loaded = Program::load(&path).unwrap();
        assert_eq!(loaded.compiled(), program.compiled());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_litter() {
        let dir = std::env::temp_dir().join("ca-artifact-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.capr");
        // pre-existing garbage at the destination is replaced wholesale
        std::fs::write(&path, b"torn garbage").unwrap();
        let program = sample();
        program.save(&path).unwrap();
        let loaded = Program::load(&path).unwrap();
        assert_eq!(loaded.compiled(), program.compiled());
        // no temp files survive a successful save
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "leftover temp files: {litter:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = Program::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CaError::Artifact(ArtifactError::ChecksumMismatch { .. })), "{err}");
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let good = sample().to_bytes();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Program::from_bytes(&bad_magic).unwrap_err(),
            CaError::Artifact(ArtifactError::BadMagic)
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 0xfe;
        bad_version[5] = 0xca;
        // version bytes are outside the checksum, so this fails on version
        assert!(matches!(
            Program::from_bytes(&bad_version).unwrap_err(),
            CaError::Artifact(ArtifactError::UnsupportedVersion(0xcafe))
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 10, 24, bytes.len() / 2, bytes.len() - 1] {
            assert!(Program::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Program::from_bytes(&extended).is_err(), "trailing byte");
    }

    #[test]
    fn loaded_stats_compare_equal_despite_missing_timings() {
        let program = sample();
        assert!(program.stats().timings.total_ms() > 0.0);
        let loaded = Program::from_bytes(&program.to_bytes()).unwrap();
        assert_eq!(loaded.stats().timings.total_ms(), 0.0);
        assert_eq!(loaded.stats(), program.stats(), "equality excludes timings");
    }
}
