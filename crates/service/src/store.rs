//! Warm-state persistence for the daemon: one checksummed
//! [`vbp_store`] container file per registered dataset.
//!
//! On graceful drain (and on the wire `SHUTDOWN`), a store-enabled
//! server writes every dataset's prepared index plus its surviving
//! dominance-cache entries under the store directory. On the next boot,
//! [`boot_from_store`] restores each requested dataset from its file —
//! skipping the bin sort entirely (the packed tree is re-derived from
//! the stored order in O(n)) — and falls back to a cold
//! [`Registry::load`] rebuild for any file that is missing, truncated,
//! corrupt, version-mismatched, or inconsistent with its own index. Fallbacks are logged and counted
//! (`vbp_store_restore_failed` in `METRICS`); they are never allowed to
//! surface wrong labels, because nothing a failed validation touched is
//! ever installed.
//!
//! Writes are crash-safe per file: the container is written to a
//! `.tmp` sibling and atomically renamed over the final name, so a kill
//! mid-persist leaves either the previous complete file or none — never
//! a torn one (and a torn `.tmp` is ignored by restore and overwritten
//! by the next persist).

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use variantdbscan::{Engine, PreparedIndex, Variant};
use vbp_dbscan::ClusterResult;
use vbp_store::{CacheRecord, DatasetMeta, DatasetSnapshot, StoreError, MAX_FILE_BYTES};

use crate::registry::{DatasetEntry, Registry};

/// File extension of one dataset's warm-state container.
pub const STORE_EXT: &str = "vbpstore";

/// The store file a dataset persists to. Dataset names are already
/// restricted to filename-safe characters (`[A-Za-z0-9_@.-]`, enforced
/// by the container's own metadata validation), so the name maps
/// directly. The checksummed *in-file* name is authoritative on
/// restore; the file name is only a locator.
pub fn dataset_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.{STORE_EXT}"))
}

/// Serializes one dataset's warm state and writes it crash-safely
/// (temp file + rename) under `dir`, creating the directory if needed.
pub fn persist_dataset(
    dir: &Path,
    entry: &DatasetEntry,
    cache: &[(Variant, Arc<ClusterResult>)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let records: Vec<CacheRecord> = cache
        .iter()
        .map(|(v, r)| CacheRecord {
            eps: v.eps,
            minpts: v.minpts as u64,
            labels: r.labels().iter_raw().collect(),
        })
        .collect();
    let snapshot = DatasetSnapshot {
        meta: DatasetMeta {
            name: entry.name.clone(),
            suggested_eps: entry.suggested_eps,
        },
        index: entry.index.to_snapshot(),
        cache: records,
    };
    let path = dataset_path(dir, &entry.name);
    let tmp = path.with_extension(format!("{STORE_EXT}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&snapshot.encode())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)
}

/// One dataset restored from its store file, validated end to end.
pub struct RestoredDataset {
    /// The registry entry, its index rebuilt without any bin sort or
    /// tree build.
    pub entry: DatasetEntry,
    /// The dataset's surviving cache entries, tree-order results.
    pub cache: Vec<(Variant, Arc<ClusterResult>)>,
}

/// Reads and fully validates one dataset's store file.
///
/// Total on arbitrary file contents: every container checksum, section
/// length, permutation, and label invariant is checked, and
/// any violation — including a cache entry whose label vector does not
/// cover the restored index — comes back as a typed [`StoreError`].
pub fn restore_dataset(path: &Path) -> Result<RestoredDataset, StoreError> {
    let f = std::fs::File::open(path).map_err(|e| StoreError::Io(e.to_string()))?;
    let mut bytes = Vec::new();
    f.take(MAX_FILE_BYTES + 1)
        .read_to_end(&mut bytes)
        .map_err(|e| StoreError::Io(e.to_string()))?;
    let snapshot = DatasetSnapshot::decode(&bytes)?;
    let index = PreparedIndex::from_snapshot(snapshot.index)?;
    let mut cache = Vec::with_capacity(snapshot.cache.len());
    for rec in &snapshot.cache {
        if rec.labels.len() != index.len() {
            return Err(StoreError::Malformed {
                section: vbp_store::section_id::CACHE,
                reason: format!(
                    "cache entry covers {} points, index has {}",
                    rec.labels.len(),
                    index.len()
                ),
            });
        }
        // `decode` proved ε finite ≥ 0 and minpts ≥ 1 — Variant::new
        // cannot panic here — and proved the labels finished and dense.
        cache.push((
            Variant::new(rec.eps, rec.minpts as usize),
            Arc::new(rec.to_result()),
        ));
    }
    Ok(RestoredDataset {
        entry: DatasetEntry {
            name: snapshot.meta.name,
            index,
            suggested_eps: snapshot.meta.suggested_eps,
        },
        cache,
    })
}

/// What [`boot_from_store`] hands to
/// [`Server::start_with_store`](crate::server::Server::start_with_store):
/// the cache entries to seed and the restore counters to expose.
#[derive(Default)]
pub struct StoreBoot {
    /// `(dataset, variant, tree-order result)` triples to seed the
    /// dominance cache with, validated against the restored indexes.
    pub cache_seed: Vec<(String, Variant, Arc<ClusterResult>)>,
    /// Datasets restored warm from the store.
    pub restored: u64,
    /// Datasets that fell back to a cold rebuild (missing, corrupt,
    /// truncated, or version-mismatched files).
    pub restore_failed: u64,
}

/// Boots a registry for `names`, restoring each dataset from its store
/// file under `dir` when possible and falling back to a cold
/// [`Registry::load`] rebuild otherwise. A restored file whose in-file
/// dataset name disagrees with the requested name is treated as
/// corrupt. Returns the registry plus the [`StoreBoot`] seed; cold
///-rebuild *load* errors (unknown catalog name) are returned as `Err`
/// exactly like a storeless boot would.
pub fn boot_from_store(
    engine: &Engine,
    names: &[String],
    dir: &Path,
) -> Result<(Registry, StoreBoot), String> {
    let registry = Registry::new();
    let mut boot = StoreBoot::default();
    for name in names {
        let path = dataset_path(dir, name);
        match restore_dataset(&path) {
            Ok(restored) if restored.entry.name == *name => {
                for (variant, result) in restored.cache {
                    boot.cache_seed.push((name.clone(), variant, result));
                }
                registry.swap(Arc::new(restored.entry));
                boot.restored += 1;
                continue;
            }
            Ok(restored) => {
                eprintln!(
                    "vbp-store: {} names dataset '{}', expected '{name}'; rebuilding cold",
                    path.display(),
                    restored.entry.name
                );
            }
            Err(StoreError::Io(_)) if !path.exists() => {
                // A first boot with an empty store directory is not a
                // failure — there is simply nothing to restore yet.
            }
            Err(e) => {
                eprintln!(
                    "vbp-store: {} failed validation ({e}); rebuilding cold",
                    path.display()
                );
            }
        }
        if path.exists() {
            boot.restore_failed += 1;
        }
        registry.load(engine, name)?;
    }
    Ok((registry, boot))
}

/// Persists every registered dataset (plus its share of `cache`) under
/// `dir`. Returns the number of datasets written; the first I/O error
/// aborts the sweep.
pub fn persist_all(
    dir: &Path,
    registry: &Registry,
    cache: &[(String, Variant, Arc<ClusterResult>)],
) -> std::io::Result<usize> {
    let mut written = 0;
    for entry in registry.entries() {
        let own: Vec<(Variant, Arc<ClusterResult>)> = cache
            .iter()
            .filter(|(d, _, _)| *d == entry.name)
            .map(|(_, v, r)| (*v, Arc::clone(r)))
            .collect();
        persist_dataset(dir, &entry, &own)?;
        written += 1;
    }
    Ok(written)
}

/// Validates every `*.vbpstore` file under `dir`, returning
/// `(file name, Ok(dataset summary) | Err(description))` per file in
/// name order — the backing of `vbp store verify`.
pub fn verify_dir(dir: &Path) -> std::io::Result<Vec<(String, Result<String, String>)>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == STORE_EXT))
        .collect();
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let verdict = match restore_dataset(&path) {
            Ok(r) => Ok(format!(
                "dataset '{}': {} points, r={}, {} cache entries",
                r.entry.name,
                r.entry.index.len(),
                r.entry.index.chosen_r(),
                r.cache.len()
            )),
            Err(e) => Err(e.to_string()),
        };
        out.push((file, verdict));
    }
    Ok(out)
}
