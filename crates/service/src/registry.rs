//! Named datasets with prebuilt indexes.
//!
//! The daemon's whole reason to stay resident is that index construction
//! and `r` tuning are paid once per dataset, not once per request: each
//! registered dataset keeps one [`PreparedIndex`] (the bin-sorted points
//! under the packed R-tree of the paper's §IV-A) alive for the
//! process lifetime. Requests then run through
//! [`Engine::execute`](variantdbscan::Engine::execute) with a
//! [`RunRequest::prepared`](variantdbscan::RunRequest::prepared) over
//! the stored handle.
//!
//! Datasets are addressed by their Table I catalog names
//! ([`DatasetSpec::by_name`]), including `@size` scaling —
//! `"SW2@5000"` is the SW2 distribution at 5 000 points.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use variantdbscan::{Engine, PreparedIndex};
use vbp_data::DatasetSpec;
use vbp_dbscan::suggest_eps;
use vbp_geom::Point2;
use vbp_rtree::PackedRTree;

/// The k-dist knee is estimated at this minpts (the DBSCAN paper's
/// recommended default neighborhood size).
const SUGGEST_MINPTS: usize = 4;

/// One registered dataset.
#[derive(Debug)]
pub struct DatasetEntry {
    /// Registry key (the catalog name it was loaded under).
    pub name: String,
    /// The points under a prebuilt packed R-tree, shared by every
    /// request; [`PreparedIndex::caller_points`] derives caller order.
    pub index: PreparedIndex,
    /// k-dist-estimated representative ε (reported by `DATASETS` and
    /// persisted with the dataset).
    pub suggested_eps: Option<f64>,
}

/// Name → dataset map owned by the server.
///
/// Entries are immutable snapshots behind `Arc`s: a streaming APPEND
/// never mutates a live [`DatasetEntry`] — it builds a successor entry
/// and [`Registry::swap`]s the map pointer, so in-flight batches keep
/// clustering against the snapshot they resolved (copy-on-write). The
/// map itself sits behind an `RwLock`; readers (`get`, `list`) never
/// block each other, and the write lock is held only for the pointer
/// swap, never during index construction.
#[derive(Debug, Default)]
pub struct Registry {
    datasets: RwLock<BTreeMap<String, Arc<DatasetEntry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a catalog dataset by name (`"cF_10k_5N"`, `"SW1@2000"`, …)
    /// and prebuilds its indexes with `engine`'s configuration.
    pub fn load(&self, engine: &Engine, name: &str) -> Result<(), String> {
        let spec = DatasetSpec::by_name(name)
            .ok_or_else(|| format!("unknown dataset '{name}' (try `vbp datasets`)"))?;
        self.register(engine, name, &spec.generate())
    }

    /// Registers an arbitrary point set under `name`, prebuilding its
    /// indexes. A representative ε is estimated from the k-dist plot, a
    /// starting radius for clients that have none yet.
    pub fn register(&self, engine: &Engine, name: &str, points: &[Point2]) -> Result<(), String> {
        let suggested_eps = representative_eps(points);
        let index = engine
            .prepare(points, None)
            .map_err(|e| format!("dataset '{name}': {e}"))?;
        self.swap(Arc::new(DatasetEntry {
            name: name.to_string(),
            index,
            suggested_eps,
        }));
        Ok(())
    }

    /// Installs `entry` under its own name, replacing any previous
    /// snapshot. The write lock is held only for the map operation.
    pub fn swap(&self, entry: Arc<DatasetEntry>) {
        self.datasets
            .write()
            .expect("registry lock poisoned")
            .insert(entry.name.clone(), entry);
    }

    /// Looks a dataset up by registry key, returning the current
    /// snapshot.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.datasets
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// The registered entries in name order.
    pub fn entries(&self) -> Vec<Arc<DatasetEntry>> {
        self.datasets
            .read()
            .expect("registry lock poisoned")
            .values()
            .cloned()
            .collect()
    }

    /// Registered names with sizes, in name order.
    pub fn list(&self) -> Vec<(String, usize)> {
        self.datasets
            .read()
            .expect("registry lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.index.len()))
            .collect()
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.datasets.read().expect("registry lock poisoned").len()
    }

    /// Returns `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Estimates a representative ε: the k-dist knee over a
/// throwaway coarse index, sampled with a stride that caps the estimate
/// at a few thousand queries.
fn representative_eps(points: &[Point2]) -> Option<f64> {
    if points.len() < SUGGEST_MINPTS + 1 {
        return None;
    }
    let (tree, _) = PackedRTree::build(points, 80);
    let stride = (points.len() / 2_000).max(1);
    suggest_eps(&tree, SUGGEST_MINPTS, stride)
}

#[cfg(test)]
mod tests {
    use super::*;
    use variantdbscan::EngineConfig;

    #[test]
    fn load_by_catalog_name_prebuilds_index() {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let reg = Registry::new();
        reg.load(&engine, "cF_10k_5N@500").unwrap();
        let entry = reg.get("cF_10k_5N@500").unwrap();
        assert_eq!(entry.index.len(), 500);
        assert!(entry.suggested_eps.is_some());
        assert_eq!(reg.list(), vec![("cF_10k_5N@500".to_string(), 500)]);
    }

    #[test]
    fn swap_is_copy_on_write() {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let reg = Registry::new();
        reg.register(
            &engine,
            "s",
            &[Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)],
        )
        .unwrap();
        let before = reg.get("s").unwrap();
        let (index, _) = engine
            .append_to_prepared(&before.index, &[Point2::new(2.0, 2.0)])
            .unwrap();
        reg.swap(Arc::new(DatasetEntry {
            name: "s".into(),
            index,
            suggested_eps: before.suggested_eps,
        }));
        // The old snapshot is untouched — in-flight batches holding it
        // keep clustering against the generation they resolved.
        assert_eq!(before.index.len(), 2);
        let after = reg.get("s").unwrap();
        assert_eq!(after.index.len(), 3);
        assert_eq!(reg.list(), vec![("s".to_string(), 3)]);
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let reg = Registry::new();
        let err = reg.load(&engine, "no_such_dataset").unwrap_err();
        assert!(err.contains("unknown dataset"));
        assert!(reg.is_empty());
    }
}
