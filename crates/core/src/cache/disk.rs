//! The on-disk artifact tier: a directory of versioned `CAPR` files
//! shared by every process pointed at it.
//!
//! Layout is `namespace/key-prefix/key`:
//!
//! ```text
//! <root>/programs-v1/<aa>/<fingerprint>-<design>-<slices>-<seed>-<opt>.capr
//! ```
//!
//! where `programs-v1` pins [`PROGRAM_ARTIFACT_VERSION`] (a future format
//! bump changes the namespace instead of invalidating files in place),
//! `<aa>` is the first fingerprint byte in hex (fans the files out across
//! 256 directories), and the file name spells out every [`CacheKey`] field
//! in fixed-width hex with `-` separators — injective and composed only of
//! `[0-9a-f.-]`, so it is safe on every filesystem.
//!
//! Failure policy, in keeping with the [tier contract](super::CacheTier):
//!
//! * **Corruption** (bad magic, checksum mismatch, truncation, any decode
//!   error): the file is quarantined by renaming it to `<name>.corrupt`
//!   (removed outright if even the rename fails), `cache.disk.corrupt`
//!   fires, and the load reports a miss. The caller recompiles and the
//!   write-through replaces the entry. Never an error.
//! * **Write contention**: writers take a best-effort advisory lock — a
//!   `<name>.lock` file created with `create_new` (O_EXCL). Losing the
//!   race skips the write: artifacts are canonical, so whatever the winner
//!   writes is byte-identical to what the loser would have written. A lock
//!   older than `LOCK_STALE_AFTER` (60 s) is presumed abandoned (a crashed
//!   writer) and broken — by *renaming* it to a unique name first, so
//!   when several writers judge the same lock stale simultaneously,
//!   exactly one wins the rename and deletes only the file it renamed;
//!   nobody can delete a fresh lock another writer just created.
//! * **I/O errors** (permissions, a full disk): counted under
//!   `cache.disk.errors` and reported as a miss / skipped write.

use super::{CacheKey, CacheTier, TierStats};
use crate::artifact::{write_atomic, PROGRAM_ARTIFACT_VERSION};
use crate::{Design, Program};
use ca_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Locks older than this are presumed abandoned and broken. Generously
/// longer than any artifact write (artifacts are at most a few MB).
const LOCK_STALE_AFTER: Duration = Duration::from_secs(60);

/// Artifact file extension.
const ARTIFACT_EXT: &str = "capr";

/// Suffix appended to the name of an artifact that failed validation.
const QUARANTINE_EXT: &str = ".corrupt";

/// The disk tier. See the [module docs](self) for layout and failure
/// policy. `Clone`-free and cheap to construct: all state is the root
/// path plus counters.
pub struct DiskCache {
    root: PathBuf,
    stats: TierStats,
    telemetry: Telemetry,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache").field("root", &self.root).field("stats", &self.stats).finish()
    }
}

/// The version-pinned namespace directory under the cache root.
pub fn namespace() -> String {
    format!("programs-v{PROGRAM_ARTIFACT_VERSION}")
}

/// The relative path (under a cache root) where `key`'s artifact lives.
///
/// Exposed so tests can check the encoding's properties (injectivity,
/// filesystem safety) without constructing a cache.
pub fn relative_path(key: &CacheKey) -> PathBuf {
    let fp = key.fingerprint.0;
    let design = match key.design {
        Design::Performance => 'p',
        Design::Space => 's',
    };
    let name = format!(
        "{fp:032x}-{design}-{slices:x}-{seed:016x}-{opt}.{ARTIFACT_EXT}",
        slices = key.slices,
        seed = key.seed,
        opt = if key.optimized { 'o' } else { 'n' },
    );
    let prefix = format!("{:02x}", (fp >> 120) as u8);
    [namespace(), prefix, name].iter().collect()
}

/// `path` with `suffix` appended to its file name (extension kept).
fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Whether the lock file at `path` was last touched longer ago than
/// [`LOCK_STALE_AFTER`] (a vanished or unreadable file is not stale).
fn is_stale(path: &Path) -> bool {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok())
        .is_some_and(|age| age > LOCK_STALE_AFTER)
}

impl DiskCache {
    /// A disk tier rooted at `root`. The directory is created lazily on
    /// first write; a read against a missing directory is simply a miss.
    pub fn new<P: Into<PathBuf>>(root: P) -> DiskCache {
        DiskCache {
            root: root.into(),
            stats: TierStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path of `key`'s artifact file.
    pub fn artifact_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join(relative_path(key))
    }

    fn bump(&mut self, field: fn(&mut TierStats) -> &mut u64, counter: &'static str) {
        *field(&mut self.stats) += 1;
        self.telemetry.counter(counter, 1);
    }

    /// Moves a failed-validation artifact out of the lookup path so it is
    /// never re-read, preserving it for post-mortems when possible.
    fn quarantine(&mut self, path: &Path) {
        if std::fs::rename(path, with_suffix(path, QUARANTINE_EXT)).is_err() {
            std::fs::remove_file(path).ok();
        }
        self.bump(|s| &mut s.corrupt, "cache.disk.corrupt");
    }

    /// Number of artifacts and total bytes currently stored (diagnostics
    /// for `cactl cache`). Quarantined, lock, and temp files are excluded.
    pub fn scan(&self) -> std::io::Result<(u64, u64)> {
        let ns = self.root.join(namespace());
        let mut entries = 0u64;
        let mut bytes = 0u64;
        if !ns.exists() {
            return Ok((0, 0));
        }
        for shard in std::fs::read_dir(&ns)? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for file in std::fs::read_dir(&shard)? {
                let file = file?;
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) == Some(ARTIFACT_EXT) {
                    entries += 1;
                    bytes += file.metadata()?.len();
                }
            }
        }
        Ok((entries, bytes))
    }

    /// Removes the entire namespace directory (all cached artifacts,
    /// quarantined files, and stale locks). Other namespaces — artifacts
    /// from other format versions — are left alone.
    pub fn clear(&self) -> std::io::Result<()> {
        let ns = self.root.join(namespace());
        match std::fs::remove_dir_all(&ns) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Takes the advisory write lock for `path`. Returns a guard that
    /// deletes the lock file on drop, or `None` if another live writer
    /// holds it (in which case the write should be skipped — the winner
    /// writes identical bytes).
    fn try_lock(&mut self, path: &Path) -> Option<LockGuard> {
        let lock_path = with_suffix(path, ".lock");
        for attempt in 0..2 {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&lock_path) {
                Ok(_) => return Some(LockGuard { path: lock_path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if is_stale(&lock_path) && attempt == 0 {
                        // Break the abandoned lock by *claiming* it with a
                        // rename to a unique name before deleting. Several
                        // writers may judge the same lock stale, but only
                        // one rename succeeds, and each contender deletes
                        // only the file it renamed — a bare remove_file
                        // here would let the slower contender delete the
                        // fresh lock the faster one just created.
                        static BREAK_SEQ: AtomicU64 = AtomicU64::new(0);
                        let seq = BREAK_SEQ.fetch_add(1, Ordering::Relaxed);
                        let claimed = with_suffix(
                            &lock_path,
                            &format!(".broken-{}-{seq}", std::process::id()),
                        );
                        if std::fs::rename(&lock_path, &claimed).is_ok() {
                            // Re-judge on the claimed file: between the
                            // staleness check and the rename, a faster
                            // contender may have broken the old lock and
                            // created a fresh one — which this rename just
                            // stole. Fresh → put it back (link-then-unlink
                            // restores without clobbering anything newer)
                            // and treat the lock as contended.
                            if !is_stale(&claimed) {
                                let _ = std::fs::hard_link(&claimed, &lock_path);
                                std::fs::remove_file(&claimed).ok();
                                self.telemetry.counter("cache.disk.lock_skipped", 1);
                                return None;
                            }
                            std::fs::remove_file(&claimed).ok();
                        }
                        // The stale lock is gone — broken here or by a
                        // faster contender; retry the exclusive create.
                        continue;
                    }
                    self.telemetry.counter("cache.disk.lock_skipped", 1);
                    return None;
                }
                Err(_) => {
                    self.bump(|s| &mut s.errors, "cache.disk.errors");
                    return None;
                }
            }
        }
        None
    }

    /// The one read path: fetches `key`'s file, fully validates it
    /// ([`Program::from_bytes`] checks magic, version, checksum and
    /// structure), and applies the tier's failure policy — missing file
    /// is a counted miss, unreadable file a counted error, corrupt file
    /// quarantined. Returns the validated bytes together with the decoded
    /// program so callers pick whichever form they need.
    fn read_validated(&mut self, key: &CacheKey) -> Option<(Vec<u8>, Program)> {
        let path = self.artifact_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.bump(|s| &mut s.misses, "cache.disk.misses");
                return None;
            }
            Err(_) => {
                self.bump(|s| &mut s.errors, "cache.disk.errors");
                return None;
            }
        };
        match Program::from_bytes(&bytes) {
            Ok(program) => {
                self.bump(|s| &mut s.hits, "cache.disk.hits");
                Some((bytes, program))
            }
            Err(_) => {
                // failed checksum/decode: quarantine and fall back to a
                // recompile — a damaged cache entry is never an error
                self.quarantine(&path);
                None
            }
        }
    }

    /// Loads `key`'s artifact as validated raw bytes (the canonical
    /// encoding, exactly as stored). Same counters, quarantine, and miss
    /// semantics as the [`CacheTier::load`] path — this is what the cache
    /// server serves over the wire, where re-encoding the decoded program
    /// would be wasted work.
    pub fn load_bytes(&mut self, key: &CacheKey) -> Option<Vec<u8>> {
        self.read_validated(key).map(|(bytes, _)| bytes)
    }
}

/// Deletes the lock file when the write finishes (or fails).
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

impl CacheTier for DiskCache {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn load(&mut self, key: &CacheKey) -> Option<Program> {
        self.read_validated(key).map(|(_, program)| program)
    }

    fn store(&mut self, key: &CacheKey, artifact: &[u8]) {
        let path = self.artifact_path(key);
        let dir = path.parent().expect("artifact path has a parent");
        if std::fs::create_dir_all(dir).is_err() {
            self.bump(|s| &mut s.errors, "cache.disk.errors");
            return;
        }
        let Some(_guard) = self.try_lock(&path) else { return };
        match write_atomic(&path, artifact) {
            Ok(()) => self.bump(|s| &mut s.writes, "cache.disk.writes"),
            Err(_) => self.bump(|s| &mut s.errors, "cache.disk.errors"),
        }
    }

    fn stats(&self) -> TierStats {
        self.stats
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_automata::Fingerprint;

    fn key(fp: u128) -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(fp),
            design: Design::Performance,
            slices: 8,
            seed: 0xca,
            optimized: false,
        }
    }

    #[test]
    fn relative_paths_are_filesystem_safe_and_sharded() {
        let path = relative_path(&key(0xab00_0000_0000_0000_0000_0000_0000_0001));
        let parts: Vec<_> =
            path.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
        assert_eq!(parts.len(), 3, "{parts:?}");
        assert_eq!(parts[0], format!("programs-v{PROGRAM_ARTIFACT_VERSION}"));
        assert_eq!(parts[1], "ab", "shard is the first fingerprint byte");
        assert!(parts[2].ends_with(".capr"));
        for part in &parts {
            assert!(
                part.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
                "unsafe character in {part:?}"
            );
        }
    }

    #[test]
    fn every_key_field_changes_the_path() {
        let base = key(1);
        let mut variants = vec![base];
        variants.push(CacheKey { fingerprint: Fingerprint(2), ..base });
        variants.push(CacheKey { design: Design::Space, ..base });
        variants.push(CacheKey { slices: 16, ..base });
        variants.push(CacheKey { seed: 0xcb, ..base });
        variants.push(CacheKey { optimized: true, ..base });
        let paths: Vec<_> = variants.iter().map(relative_path).collect();
        for (i, a) in paths.iter().enumerate() {
            for b in &paths[i + 1..] {
                assert_ne!(a, b, "colliding paths for distinct keys");
            }
        }
    }

    #[test]
    fn lock_contention_skips_the_write_and_stale_locks_break() {
        let dir = std::env::temp_dir().join(format!("ca-disk-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cache = DiskCache::new(&dir);
        let target = dir.join("entry.capr");

        // a held (fresh) lock blocks a second writer
        let guard = cache.try_lock(&target).expect("first lock succeeds");
        assert!(cache.try_lock(&target).is_none(), "contended lock is skipped");
        drop(guard);
        assert!(!dir.join("entry.capr.lock").exists(), "guard removed the lock file");

        // an abandoned lock with an ancient mtime is broken and re-taken
        let lock_path = dir.join("entry.capr.lock");
        std::fs::write(&lock_path, b"").unwrap();
        let stale = std::time::SystemTime::now() - Duration::from_secs(3600);
        let file = std::fs::OpenOptions::new().write(true).open(&lock_path).unwrap();
        file.set_modified(stale).unwrap();
        drop(file);
        assert!(cache.try_lock(&target).is_some(), "stale lock is broken");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression test for the stale-lock break race: two writers that
    /// both judge one lock stale used to both `remove_file` it, so the
    /// loser could delete the winner's *fresh* lock and end up with a
    /// second guard on the same path (whose drop then deleted whichever
    /// lock was current). Breaking via rename-to-unique means exactly one
    /// contender ever wins the break.
    #[test]
    fn concurrent_stale_lock_break_elects_exactly_one_winner() {
        let dir = std::env::temp_dir().join(format!(
            "ca-disk-lock-race-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("entry.capr");
        let lock_path = dir.join("entry.capr.lock");
        for round in 0..8 {
            // plant an abandoned lock with an ancient mtime
            std::fs::write(&lock_path, b"").unwrap();
            let old = std::time::SystemTime::now() - Duration::from_secs(3600);
            let file = std::fs::OpenOptions::new().write(true).open(&lock_path).unwrap();
            file.set_modified(old).unwrap();
            drop(file);

            let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
            let guards: Vec<_> = (0..2)
                .map(|_| {
                    let barrier = std::sync::Arc::clone(&barrier);
                    let dir = dir.clone();
                    let target = target.clone();
                    std::thread::spawn(move || {
                        let mut cache = DiskCache::new(&dir);
                        barrier.wait();
                        cache.try_lock(&target)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            let winners = guards.iter().filter(|g| g.is_some()).count();
            assert_eq!(winners, 1, "round {round}: exactly one contender re-takes the lock");
            assert!(lock_path.exists(), "round {round}: the winner's fresh lock survived");
            drop(guards);
            assert!(!lock_path.exists(), "round {round}: the winner's guard cleaned up");
            // no .broken-* residue from either contender
            let residue: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.contains(".broken-"))
                .collect();
            assert!(residue.is_empty(), "round {round}: leftover break files {residue:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
