//! Memoizing result cache: in-memory for one process, optionally on disk.
//!
//! The disk layer is the seed of the sweep server's shared cache
//! (ROADMAP item 2): one JSON file per cell under
//! `<dir>/<CACHE_VERSION>/<hash>.json` carrying the full canonical key,
//! which is verified on load so a hash collision or a stale schema can
//! never serve the wrong result. Bump [`CACHE_VERSION`] whenever a change
//! affects golden outputs — old entries then simply stop resolving.

use minijson::{json, FromJson, ToJson};
use sim::RunResult;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cache format/semantics version. Part of the on-disk path: bump it when
/// a simulator change intentionally alters results (the golden snapshots
/// will have been regenerated too) and every old entry is invalidated at
/// once.
pub const CACHE_VERSION: &str = "v1";

/// Schema tag inside every cache file.
pub const CACHE_SCHEMA: &str = "redhip-sweep-cache/v1";

/// Hit/miss counters (atomic: workers store from many threads).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Served from the in-process map.
    pub memory_hits: AtomicU64,
    /// Served from a disk file.
    pub disk_hits: AtomicU64,
    /// Not found anywhere (the cell was simulated).
    pub misses: AtomicU64,
    /// Results written to disk.
    pub disk_stores: AtomicU64,
}

impl CacheCounters {
    /// Total hits, memory + disk.
    pub fn hits(&self) -> u64 {
        self.memory_hits.load(Ordering::Relaxed) + self.disk_hits.load(Ordering::Relaxed)
    }
}

/// A memoizing map from canonical cell key to [`RunResult`].
#[derive(Debug)]
pub struct ResultCache {
    memory: Mutex<HashMap<String, RunResult>>,
    disk: Option<PathBuf>,
    /// Counters for dedup accounting and the acceptance tests.
    pub counters: CacheCounters,
}

impl ResultCache {
    /// Process-local cache only.
    pub fn in_memory() -> Self {
        Self {
            memory: Mutex::new(HashMap::new()),
            disk: None,
            counters: CacheCounters::default(),
        }
    }

    /// Cache backed by `dir` (the versioned subdirectory is appended
    /// here). The directory is created lazily on first store.
    pub fn with_disk(dir: PathBuf) -> Self {
        Self {
            memory: Mutex::new(HashMap::new()),
            disk: Some(dir.join(CACHE_VERSION)),
            counters: CacheCounters::default(),
        }
    }

    /// Whether a disk layer is configured.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    fn disk_path(&self, hash: u64) -> Option<PathBuf> {
        self.disk
            .as_ref()
            .map(|d| d.join(format!("{hash:016x}.json")))
    }

    /// Looks `key` up, memory first, then disk. A disk hit is promoted
    /// into memory.
    pub fn lookup(&self, key: &str, hash: u64) -> Option<RunResult> {
        if let Some(r) = self.memory.lock().expect("cache poisoned").get(key) {
            self.counters.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(r.clone());
        }
        if let Some(path) = self.disk_path(hash) {
            if let Some(r) = load_entry(&path, key) {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.memory
                    .lock()
                    .expect("cache poisoned")
                    .insert(key.to_string(), r.clone());
                return Some(r);
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a freshly simulated result under `key`. When a manifest is
    /// supplied, its deterministic identity fields are embedded in the
    /// disk entry — [`load_entry`] ignores unknown members, so entries
    /// with and without one interoperate, and only
    /// [`metrics::RunManifest::to_json`]'s job-count-invariant fields go
    /// in (cache directories are byte-compared across `--jobs`).
    pub fn store(
        &self,
        key: &str,
        hash: u64,
        result: &RunResult,
        manifest: Option<&metrics::RunManifest>,
    ) {
        self.memory
            .lock()
            .expect("cache poisoned")
            .insert(key.to_string(), result.clone());
        if let Some(path) = self.disk_path(hash) {
            let mut doc = json!({
                "schema": CACHE_SCHEMA,
                "key": key,
                "result": result.to_json(),
            });
            if let Some(m) = manifest {
                doc.set("manifest", m.to_json());
            }
            if let Some(dir) = path.parent() {
                if std::fs::create_dir_all(dir).is_err() {
                    return; // cache is best-effort; the sweep still runs
                }
            }
            // Write-then-rename so a concurrent reader never sees a torn
            // file (two processes racing on the same cell write identical
            // bytes anyway).
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if std::fs::write(&tmp, doc.pretty()).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
                self.counters.disk_stores.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Loads one cache file, returning `None` (a miss) on any mismatch or
/// parse problem rather than failing the sweep.
fn load_entry(path: &std::path::Path, key: &str) -> Option<RunResult> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = minijson::parse(&text).ok()?;
    if doc.get("schema")?.as_str()? != CACHE_SCHEMA {
        return None;
    }
    if doc.get("key")?.as_str()? != key {
        return None; // hash collision or stale entry
    }
    RunResult::from_json(doc.get("result")?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSpec;
    use sim::{Mechanism, SimConfig};
    use workloads::{Benchmark, Scale};

    fn tiny_spec() -> CellSpec {
        let mut cfg = SimConfig::new(energy_model::presets::demo_scale(), Mechanism::Redhip);
        cfg.refs_per_core = 800;
        cfg.recalib_period = Some(256);
        CellSpec::new(&cfg, Benchmark::Mcf, Scale::Smoke)
    }

    #[test]
    fn memory_roundtrip_counts_hits() {
        let cache = ResultCache::in_memory();
        let spec = tiny_spec();
        let key = spec.canonical_key();
        let hash = spec.content_hash();
        assert!(cache.lookup(&key, hash).is_none());
        let r = spec.simulate();
        cache.store(&key, hash, &r, None);
        let back = cache.lookup(&key, hash).expect("hit");
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(cache.counters.hits(), 1);
        assert_eq!(cache.counters.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disk_roundtrip_is_byte_exact() {
        let dir = std::env::temp_dir().join(format!("sweep-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec();
        let key = spec.canonical_key();
        let hash = spec.content_hash();
        let r = spec.simulate();
        {
            let cache = ResultCache::with_disk(dir.clone());
            cache.store(&key, hash, &r, Some(&spec.manifest()));
            assert_eq!(cache.counters.disk_stores.load(Ordering::Relaxed), 1);
        }
        // The entry embeds the deterministic manifest, and loaders that
        // don't know about it still resolve the result below.
        let file = dir.join(CACHE_VERSION).join(format!("{hash:016x}.json"));
        let text = std::fs::read_to_string(&file).expect("entry on disk");
        let doc = minijson::parse(&text).expect("entry parses");
        let manifest = doc.get("manifest").expect("manifest embedded");
        assert_eq!(
            manifest.get("schema").unwrap().as_str().unwrap(),
            "redhip-manifest/v1"
        );
        assert_eq!(
            manifest.get("mechanism").unwrap().as_str().unwrap(),
            "ReDHiP"
        );
        // A fresh cache (fresh process, conceptually) must rehydrate the
        // result so that its JSON re-serializes byte-identically — the
        // property the figure determinism guarantee rests on.
        let cache = ResultCache::with_disk(dir.clone());
        let back = cache.lookup(&key, hash).expect("disk hit");
        assert_eq!(cache.counters.disk_hits.load(Ordering::Relaxed), 1);
        assert_eq!(back.to_json().pretty(), r.to_json().pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_in_file_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("sweep-cache-collide-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec();
        let key = spec.canonical_key();
        let hash = spec.content_hash();
        let cache = ResultCache::with_disk(dir.clone());
        cache.store(&key, hash, &spec.simulate(), None);
        // Same hash file, different requested key → must not serve it.
        assert!(cache.lookup("some-other-key", hash).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_with_legacy_manifest_field_is_still_a_hit() {
        let dir = std::env::temp_dir().join(format!("sweep-cache-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = tiny_spec();
        let key = spec.canonical_key();
        let hash = spec.content_hash();
        let r = spec.simulate();
        // An entry as older builds wrote it: the embedded manifest still
        // carries the retired `sequential_fallback` flag.
        let mut manifest = spec.manifest().to_json();
        manifest.set("sequential_fallback", false.into());
        let doc = json!({
            "schema": CACHE_SCHEMA,
            "key": key.as_str(),
            "result": r.to_json(),
            "manifest": manifest,
        });
        let file = dir.join(CACHE_VERSION).join(format!("{hash:016x}.json"));
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(&file, doc.pretty()).unwrap();
        let cache = ResultCache::with_disk(dir.clone());
        let back = cache
            .lookup(&key, hash)
            .expect("legacy entry is a disk hit");
        assert_eq!(cache.counters.disk_hits.load(Ordering::Relaxed), 1);
        assert_eq!(back.to_json().pretty(), r.to_json().pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
