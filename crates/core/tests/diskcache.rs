//! Integration tests for the persistent disk tier of the artifact cache:
//! artifacts written by one process (or one `CacheAutomaton`) must come
//! back bit-identical in another; damaged files must degrade to a counted
//! recompile, never an error; concurrent writers must not tear each
//! other's artifacts; and the `CACHE_AUTOMATON_DIR` environment wiring
//! must behave exactly like an explicit `disk_cache(path)`.

use cache_automaton::{CacheAutomaton, Telemetry, CACHE_DIR_ENV};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A unique scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ca-diskcache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Serializes tests that mutate `CACHE_AUTOMATON_DIR` — the environment
/// is process-global, and every `Builder` without an explicit disk choice
/// consults it.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// All `.capr` artifact files under a cache root, sorted.
fn artifact_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().and_then(|e| e.to_str()) == Some("capr") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out.sort();
    out
}

fn automaton_with_disk(root: &Path, telemetry: Telemetry) -> CacheAutomaton {
    CacheAutomaton::builder().disk_cache(root).telemetry_handle(telemetry).build()
}

#[test]
fn a_second_automaton_loads_from_disk_without_compiling() {
    let scratch = Scratch::new("reload");
    let patterns = ["warm.?start", "cache"];

    let cold = automaton_with_disk(scratch.path(), Telemetry::disabled());
    let first = cold.compile_patterns(&patterns).unwrap();
    let disk = cold.disk_cache_stats().expect("disk tier is attached");
    assert_eq!((disk.hits, disk.misses, disk.writes), (0, 1, 1), "cold run misses then writes");
    assert_eq!(artifact_files(scratch.path()).len(), 1);

    // A brand-new automaton — fresh memory tier, same directory — finds
    // the artifact on disk and never reaches the compiler.
    let recorder = Arc::new(ca_telemetry::MemoryRecorder::new());
    let warm = automaton_with_disk(scratch.path(), Telemetry::from_arc(recorder.clone()));
    let second = warm.compile_patterns(&patterns).unwrap();
    assert_eq!(second.to_bytes(), first.to_bytes(), "artifact is bit-identical across processes");
    let disk = warm.disk_cache_stats().unwrap();
    assert_eq!((disk.hits, disk.misses), (1, 0));
    assert_eq!(recorder.counter("cache.disk.hits"), 1);
    assert_eq!(recorder.counter("compile.compilations"), 0, "no compiler pass ran");
}

#[test]
fn corrupt_and_truncated_artifacts_fall_back_to_recompile() {
    let scratch = Scratch::new("corrupt");
    let patterns = ["d[ae]mage"];
    let reference = automaton_with_disk(scratch.path(), Telemetry::disabled())
        .compile_patterns(&patterns)
        .unwrap();
    let stored = artifact_files(scratch.path());
    assert_eq!(stored.len(), 1);

    // Flip a payload byte: the checksum fails, the file is quarantined,
    // the counter fires, and the caller silently recompiles.
    let mut bytes = std::fs::read(&stored[0]).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    std::fs::write(&stored[0], &bytes).unwrap();

    let recorder = Arc::new(ca_telemetry::MemoryRecorder::new());
    let ca = automaton_with_disk(scratch.path(), Telemetry::from_arc(recorder.clone()));
    let recompiled = ca.compile_patterns(&patterns).unwrap();
    assert_eq!(recompiled.to_bytes(), reference.to_bytes());
    assert_eq!(recorder.counter("cache.disk.corrupt"), 1);
    let quarantined: Vec<_> = std::fs::read_dir(stored[0].parent().unwrap())
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("corrupt"))
        .collect();
    assert_eq!(quarantined.len(), 1, "damaged file moved out of the lookup path");
    // The write-through replaced the entry, so the *next* reader hits.
    let fresh = automaton_with_disk(scratch.path(), Telemetry::disabled());
    let _ = fresh.compile_patterns(&patterns).unwrap();
    assert_eq!(fresh.disk_cache_stats().unwrap().hits, 1);

    // Truncation (a torn write that somehow survived) behaves the same.
    let stored = artifact_files(scratch.path());
    let bytes = std::fs::read(&stored[0]).unwrap();
    std::fs::write(&stored[0], &bytes[..bytes.len() / 3]).unwrap();
    let recorder = Arc::new(ca_telemetry::MemoryRecorder::new());
    let ca = automaton_with_disk(scratch.path(), Telemetry::from_arc(recorder.clone()));
    assert_eq!(ca.compile_patterns(&patterns).unwrap().to_bytes(), reference.to_bytes());
    assert_eq!(recorder.counter("cache.disk.corrupt"), 1);
}

#[test]
fn eviction_from_memory_falls_through_to_disk() {
    let scratch = Scratch::new("evict");
    let ca = CacheAutomaton::builder().disk_cache(scratch.path()).cache_capacity(1).build();
    let first = ca.compile_patterns(&["alpha"]).unwrap();
    // A single use of "beta" cannot displace "alpha" (TinyLFU admission),
    // but the artifact still lands on disk; the second use out-frequencies
    // the resident and evicts it from the 1-entry memory tier.
    let _ = ca.compile_patterns(&["beta"]).unwrap();
    let _ = ca.compile_patterns(&["beta"]).unwrap();
    let memory = ca.cache_stats();
    assert_eq!(memory.evictions, 1, "{memory:?}");

    let again = ca.compile_patterns(&["alpha"]).unwrap();
    assert_eq!(again.to_bytes(), first.to_bytes());
    let disk = ca.disk_cache_stats().unwrap();
    // "beta" (second use) and "alpha" (after eviction) both came back from
    // the disk tier instead of a recompile.
    assert_eq!(disk.hits, 2, "evicted programs came back from the disk tier: {disk:?}");
}

#[test]
fn zero_capacity_memory_still_uses_the_disk_tier() {
    let scratch = Scratch::new("zerocap");
    let ca = CacheAutomaton::builder().disk_cache(scratch.path()).cache_capacity(0).build();
    let first = ca.compile_patterns(&["stateless"]).unwrap();
    let second = ca.compile_patterns(&["stateless"]).unwrap();
    assert_eq!(first.to_bytes(), second.to_bytes());
    let disk = ca.disk_cache_stats().unwrap();
    assert_eq!(
        (disk.hits, disk.misses, disk.writes),
        (1, 1, 1),
        "disk serves what memory cannot hold"
    );
}

#[test]
fn concurrent_writers_leave_one_valid_artifact() {
    let scratch = Scratch::new("race");
    let patterns = ["race[0-9]+", "condition"];
    let programs: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let root = scratch.path().to_path_buf();
                scope.spawn(move || {
                    automaton_with_disk(&root, Telemetry::disabled())
                        .compile_patterns(&patterns)
                        .unwrap()
                        .to_bytes()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for bytes in &programs[1..] {
        assert_eq!(bytes, &programs[0], "every writer produced the canonical artifact");
    }
    let stored = artifact_files(scratch.path());
    assert_eq!(stored.len(), 1, "one key, one file");
    // Whatever interleaving won, the stored artifact is whole and valid.
    let ca = automaton_with_disk(scratch.path(), Telemetry::disabled());
    assert_eq!(ca.compile_patterns(&patterns).unwrap().to_bytes(), programs[0]);
    assert_eq!(ca.disk_cache_stats().unwrap().hits, 1);
}

#[test]
fn env_var_attaches_the_disk_tier_like_the_builder_call() {
    let _guard = ENV_LOCK.lock().unwrap();
    let scratch = Scratch::new("env");

    std::env::set_var(CACHE_DIR_ENV, scratch.path());
    let ca = CacheAutomaton::new();
    let _ = ca.compile_patterns(&["from.?env"]).unwrap();
    assert_eq!(artifact_files(scratch.path()).len(), 1, "env-configured tier wrote through");
    assert!(ca.disk_cache_stats().is_some());

    // An explicit opt-out beats the environment.
    let ca = CacheAutomaton::builder().no_disk_cache().build();
    let _ = ca.compile_patterns(&["opt.?out"]).unwrap();
    assert!(ca.disk_cache_stats().is_none());
    assert_eq!(artifact_files(scratch.path()).len(), 1, "no new artifact");

    // An empty value means unset.
    std::env::set_var(CACHE_DIR_ENV, "");
    let ca = CacheAutomaton::new();
    let _ = ca.compile_patterns(&["empty"]).unwrap();
    assert!(ca.disk_cache_stats().is_none());

    std::env::remove_var(CACHE_DIR_ENV);
}

/// The real thing: two *processes* (the `cactl` binary) sharing one cache
/// directory. The second must report identical matches while logging a
/// disk hit and not a single compiler pass — the claim the CI smoke job
/// re-checks from the outside.
#[test]
fn cactl_processes_share_the_cache_directory() {
    let scratch = Scratch::new("cactl");
    let rules = scratch.path().join("rules.txt");
    let input = scratch.path().join("input.bin");
    let cache = scratch.path().join("cache");
    std::fs::write(&rules, "warm\nst[aeiou]rt\n").unwrap();
    std::fs::write(&input, b"a warm start beats a cold start every time").unwrap();

    let run = |metrics: &Path| {
        let output = Command::new(env!("CARGO_BIN_EXE_cactl"))
            .env_remove(CACHE_DIR_ENV)
            .arg("run")
            .arg(&rules)
            .arg(&input)
            .arg("--cache-dir")
            .arg(&cache)
            .arg("--metrics")
            .arg(metrics)
            .output()
            .unwrap();
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        String::from_utf8(output.stdout).unwrap()
    };

    let cold_metrics = scratch.path().join("cold.jsonl");
    let warm_metrics = scratch.path().join("warm.jsonl");
    // The report must be bit-identical; only the `metrics written` line
    // names the (different) sink file.
    let report = |stdout: &str| -> String {
        stdout.lines().filter(|l| !l.starts_with("metrics written")).collect::<Vec<_>>().join("\n")
    };
    let cold = run(&cold_metrics);
    let warm = run(&warm_metrics);
    assert_eq!(report(&cold), report(&warm), "reports are bit-identical across processes");

    let cold_log = std::fs::read_to_string(&cold_metrics).unwrap();
    let warm_log = std::fs::read_to_string(&warm_metrics).unwrap();
    assert!(cold_log.contains("compile.pass."), "first process compiled");
    assert!(cold_log.contains("cache.disk.writes"), "first process wrote through");
    assert!(warm_log.contains("cache.disk.hits"), "second process hit the disk tier");
    assert!(!warm_log.contains("compile.pass."), "second process never ran a compiler pass");
}

/// `--trace` writes one serial scan's cycles, so `run` refuses it beside
/// `--shards` (usage error, exit code 2) instead of quietly scanning
/// serially, and does so before creating the trace file.
#[test]
fn cactl_run_refuses_trace_with_shards() {
    let scratch = Scratch::new("cactl-trace-shards");
    let rules = scratch.path().join("rules.txt");
    let input = scratch.path().join("input.bin");
    let trace = scratch.path().join("cycles.txt");
    std::fs::write(&rules, "warm\n").unwrap();
    std::fs::write(&input, b"a warm start").unwrap();
    let cactl = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_cactl"))
            .env_remove(CACHE_DIR_ENV)
            .arg("run")
            .arg(&rules)
            .arg(&input)
            .arg("--trace")
            .arg(&trace)
            .args(extra)
            .output()
            .unwrap()
    };

    let refused = cactl(&["--shards", "2"]);
    assert_eq!(refused.status.code(), Some(2), "a usage error");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("--trace") && stderr.contains("--shards"), "{stderr}");
    assert!(!trace.exists(), "refused before the trace file was created");

    let traced = cactl(&[]);
    assert!(traced.status.success(), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(std::fs::read_to_string(&trace).unwrap().lines().count(), 12, "a line per byte");
}
