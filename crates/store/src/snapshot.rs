//! Payload schemas: the prepared-index snapshot, the per-dataset
//! container, and serialized dominance-cache entries.
//!
//! One flat container format serves two file shapes. An *index file*
//! ([`IndexSnapshot::encode`], what `PreparedIndex::snapshot` writes)
//! holds the index sections alone; a *dataset file*
//! ([`DatasetSnapshot::encode`], what the service persists per
//! registered dataset) holds the same index sections side by side with
//! a metadata section and the dataset's surviving cache entries. The
//! section id ranges are disjoint, so both shapes share one directory
//! namespace and every payload byte is checksummed exactly once.
//!
//! The snapshot deliberately stores **no tree level MBBs**. The packed
//! tree is a pure function of the tree-order point array, the chosen
//! `r`, and the fanout — `PackedRTree::from_sorted_with_fanout` is the
//! single construction path for fresh builds, maintained appends, and
//! re-sorts alike — so a restore re-derives its levels bit-identically
//! in O(n) instead of reading, checksumming, and *re-validating*
//! redundant geometry. (Validation is not optional: a
//! CRC-valid file can still be a crafted one, and a leaf MBB that fails
//! to cover its points silently drops neighbors. Deriving the levels
//! from the checked points makes that entire attack surface
//! unrepresentable.) What remains on disk is exactly the expensive,
//! non-derivable state: the bin-sorted point order and `r`.
//!
//! Every decoder here is total: lengths are cross-checked against the
//! bytes actually present, permutations must be bijections, labels must
//! be a *finished* clustering (no unclassified sentinel, dense cluster
//! ids) before a [`ClusterResult`] is ever constructed — the panics in
//! `ClusterResult::from_labels` are unreachable from arbitrary input.

use vbp_dbscan::{ClusterResult, Labels, NOISE, UNCLASSIFIED};
use vbp_geom::Point2;
use vbp_rtree::SharedPoints;

use crate::bytes::{ByteReader, ByteWriter};
use crate::container::{Container, ContainerWriter};
use crate::error::StoreError;

/// Well-known section ids. Index sections live in `0x00xx`, dataset
/// sections in `0x01xx` — disjoint, so an index file's sections embed
/// unchanged alongside the dataset sections in one flat container.
pub mod section_id {
    /// Index: scalar metadata (`n`, `r`, fanout, build time, append
    /// generation, and a flag byte for [`TUNE`]).
    pub const INDEX_META: u32 = 0x0001;
    /// Index: point coordinates in tree (packing) order.
    pub const POINTS: u32 = 0x0002;
    /// Index: tree order → caller order permutation.
    pub const PERMUTATION: u32 = 0x0003;
    /// Index: an `r`-tuning sweep record, written by older versions
    /// (with the meta flag byte set to 1) and no longer parsed: a file
    /// that carries it restores at its stored `r`, and is re-encoded
    /// without it.
    pub const TUNE: u32 = 0x0006;
    /// Dataset: registry metadata (name, suggested ε).
    pub const DATASET_META: u32 = 0x0101;
    /// Dataset: serialized dominance-cache entries.
    pub const CACHE: u32 = 0x0103;
}

/// Longest dataset name the store accepts (bytes).
pub const MAX_NAME_BYTES: usize = 256;

/// The serializable state of one `PreparedIndex`, as plain data: the
/// tree-order points, the permutation mapping them back to caller
/// order, and the scalar build parameters. The core crate converts
/// between this and its private handle; a restore re-derives the
/// packed tree from these fields without bin-sorting.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexSnapshot {
    /// The database in tree (packing) order — exactly the array the
    /// packed tree is built over. Shared (`Arc`) so decode → tree
    /// derivation hands the array over without copying it.
    pub points: SharedPoints,
    /// Tree order → caller order (`permutation[i]` is the caller index
    /// of tree point `i`). Always a bijection after decode.
    pub permutation: Vec<u32>,
    /// The `r` the index was built with.
    pub chosen_r: usize,
    /// Internal fanout of the packed tree.
    pub fanout: usize,
    /// Accumulated build + maintenance wall time, nanoseconds.
    pub build_time_ns: u64,
    /// Points appended at the tree tail since the last full bin sort
    /// (the append generation counter).
    pub appended_since_sort: u64,
}

impl IndexSnapshot {
    /// Serializes into one self-contained index file.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ContainerWriter::new();
        self.encode_into(&mut w);
        w.finish()
    }

    /// Appends this snapshot's sections to a container under
    /// construction — how a dataset file embeds the index flat.
    pub fn encode_into(&self, w: &mut ContainerWriter) {
        let mut meta = ByteWriter::new();
        meta.u64(self.points.len() as u64);
        meta.u64(self.chosen_r as u64);
        meta.u64(self.fanout as u64);
        meta.u64(self.build_time_ns);
        meta.u64(self.appended_since_sort);
        // The `TUNE` flag: no such section is written, but the byte keeps
        // the layout every existing file and reader shares.
        meta.u8(0);

        let mut points = ByteWriter::new();
        for p in self.points.iter() {
            points.f64(p.x);
            points.f64(p.y);
        }

        let mut perm = ByteWriter::new();
        for &i in &self.permutation {
            perm.u32(i);
        }

        w.section(section_id::INDEX_META, meta.finish());
        w.section(section_id::POINTS, points.finish());
        w.section(section_id::PERMUTATION, perm.finish());
    }

    /// Parses and validates one index file.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let c = Container::parse(bytes.to_vec())?;
        Self::decode_container(&c)
    }

    /// [`IndexSnapshot::decode`] over an already-parsed container —
    /// also how a dataset file's flat index sections are read.
    pub fn decode_container(c: &Container) -> Result<Self, StoreError> {
        let mut meta = ByteReader::new(c.require(section_id::INDEX_META)?, section_id::INDEX_META);
        let n_raw = meta.u64()?;
        let chosen_r = meta.u64()?;
        let fanout = meta.u64()?;
        let build_time_ns = meta.u64()?;
        let appended_since_sort = meta.u64()?;
        let tune_flag = meta.u8()?;
        meta.done()?;
        let malformed = |section: u32, reason: String| StoreError::Malformed { section, reason };
        let n = usize::try_from(n_raw)
            .ok()
            .filter(|&n| n < u32::MAX as usize)
            .ok_or_else(|| malformed(section_id::INDEX_META, format!("bad point count {n_raw}")))?;
        if chosen_r < 1 || chosen_r > u64::from(u32::MAX) {
            return Err(malformed(
                section_id::INDEX_META,
                format!("bad r {chosen_r}"),
            ));
        }
        if fanout < 2 || fanout > u64::from(u32::MAX) {
            return Err(malformed(
                section_id::INDEX_META,
                format!("bad fanout {fanout}"),
            ));
        }
        if appended_since_sort > n as u64 {
            return Err(malformed(
                section_id::INDEX_META,
                format!("append generation {appended_since_sort} exceeds {n} points"),
            ));
        }
        if tune_flag > 1 {
            return Err(malformed(
                section_id::INDEX_META,
                format!("bad tune flag {tune_flag}"),
            ));
        }

        // Bulk decode: one length check up front, then fixed-size
        // chunks — the restore hot path reads millions of floats and a
        // per-element bounds check is measurable there.
        let pb = c.require(section_id::POINTS)?;
        if pb.len() != n * 16 {
            return Err(malformed(
                section_id::POINTS,
                format!("{} bytes for {n} points", pb.len()),
            ));
        }
        let points: SharedPoints = pb
            .chunks_exact(16)
            .map(|chunk| {
                Point2::new(
                    f64::from_le_bytes(chunk[..8].try_into().unwrap()),
                    f64::from_le_bytes(chunk[8..].try_into().unwrap()),
                )
            })
            .collect();
        if let Some(i) = points.iter().position(|p| !p.is_finite()) {
            return Err(malformed(
                section_id::POINTS,
                format!("point {i} has non-finite coordinates"),
            ));
        }

        let sb = c.require(section_id::PERMUTATION)?;
        if sb.len() != n * 4 {
            return Err(malformed(
                section_id::PERMUTATION,
                format!("{} bytes for {n} entries", sb.len()),
            ));
        }
        let mut permutation = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        for chunk in sb.chunks_exact(4) {
            let i = u32::from_le_bytes(chunk.try_into().unwrap());
            match seen.get_mut(i as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(malformed(
                        section_id::PERMUTATION,
                        format!("permutation is not a bijection (entry {i})"),
                    ))
                }
            }
            permutation.push(i);
        }

        Ok(Self {
            points,
            permutation,
            chosen_r: chosen_r as usize,
            fanout: fanout as usize,
            build_time_ns,
            appended_since_sort,
        })
    }
}

/// One serialized dominance-cache entry: the variant key as plain
/// numbers and the clustering's raw tree-order labels.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheRecord {
    /// The variant's ε. Always finite and ≥ 0 after decode.
    pub eps: f64,
    /// The variant's minpts. Always ≥ 1 after decode.
    pub minpts: u64,
    /// Raw per-point labels in the dataset's tree order. Always a
    /// finished clustering after decode (no unclassified sentinel,
    /// dense cluster ids) — safe to hand to [`cluster_result_from_raw`].
    pub labels: Vec<u32>,
}

impl CacheRecord {
    /// Builds the [`ClusterResult`] this record serializes.
    ///
    /// Only total for records that came out of [`decode_cache_records`]
    /// (or were built from a real result); decode has already proven the
    /// labels finished and dense, which is exactly what
    /// `ClusterResult::from_labels` asserts.
    pub fn to_result(&self) -> ClusterResult {
        ClusterResult::from_labels(Labels::from_raw(self.labels.clone()))
    }
}

/// Serializes cache entries into a [`section_id::CACHE`] payload.
pub fn encode_cache_records(records: &[CacheRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(records.len() as u64);
    for rec in records {
        w.f64(rec.eps);
        w.u64(rec.minpts);
        w.u64(rec.labels.len() as u64);
        for &l in &rec.labels {
            w.u32(l);
        }
    }
    w.finish()
}

/// Parses a [`section_id::CACHE`] payload, validating every record:
/// finite ε ≥ 0, minpts ≥ 1, and labels that form a *finished*
/// clustering (no unclassified sentinel, dense non-empty cluster ids).
pub fn decode_cache_records(bytes: &[u8]) -> Result<Vec<CacheRecord>, StoreError> {
    let section = section_id::CACHE;
    let mut r = ByteReader::new(bytes, section);
    // Each record is at least ε + minpts + length = 24 bytes.
    let count = r.count(24, "cache records")?;
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let eps = r.f64()?;
        let minpts = r.u64()?;
        if !eps.is_finite() || eps < 0.0 {
            return Err(StoreError::Malformed {
                section,
                reason: format!("record {i}: ε is not finite and ≥ 0"),
            });
        }
        if minpts < 1 || usize::try_from(minpts).is_err() {
            return Err(StoreError::Malformed {
                section,
                reason: format!("record {i}: bad minpts {minpts}"),
            });
        }
        let n = r.count(4, "labels")?;
        let labels: Vec<u32> = r
            .bytes(n * 4)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        validate_finished_labels(&labels).map_err(|reason| StoreError::Malformed {
            section,
            reason: format!("record {i}: {reason}"),
        })?;
        records.push(CacheRecord {
            eps,
            minpts,
            labels,
        });
    }
    r.done()?;
    Ok(records)
}

/// Checks that raw labels describe a finished clustering: no
/// [`UNCLASSIFIED`] sentinel, and cluster ids dense `0..k` with every
/// cluster non-empty — the exact preconditions
/// `ClusterResult::from_labels` panics on.
pub fn validate_finished_labels(labels: &[u32]) -> Result<(), String> {
    let n = labels.len();
    let mut max: Option<u32> = None;
    for (i, &l) in labels.iter().enumerate() {
        if l == NOISE {
            continue;
        }
        if l == UNCLASSIFIED {
            return Err(format!("point {i} is unclassified"));
        }
        // Dense ids imply every id < number of clustered points ≤ n, so
        // anything ≥ n (bounded well below the sentinels) is corrupt.
        if l as usize >= n {
            return Err(format!("point {i} labeled with impossible cluster {l}"));
        }
        max = Some(max.map_or(l, |m| m.max(l)));
    }
    if let Some(max) = max {
        let mut seen = vec![false; max as usize + 1];
        for &l in labels {
            if l != NOISE {
                seen[l as usize] = true;
            }
        }
        if let Some(hole) = seen.iter().position(|&s| !s) {
            return Err(format!("cluster ids are not dense (cluster {hole} empty)"));
        }
    }
    Ok(())
}

/// Builds a [`ClusterResult`] from raw tree-order labels, totally:
/// validation first, construction only on success.
pub fn cluster_result_from_raw(labels: Vec<u32>) -> Result<ClusterResult, StoreError> {
    validate_finished_labels(&labels).map_err(|reason| StoreError::Malformed {
        section: section_id::CACHE,
        reason,
    })?;
    Ok(ClusterResult::from_labels(Labels::from_raw(labels)))
}

/// Registry metadata persisted alongside a dataset's index.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetMeta {
    /// The registry key the dataset was serving under. The store trusts
    /// this (checksummed) name, never the file name.
    pub name: String,
    /// The k-dist-estimated representative ε, when one was computed.
    pub suggested_eps: Option<f64>,
}

/// Characters allowed in a persisted dataset name — the protocol-legal,
/// whitespace-free set dataset tokens already use on the wire.
fn name_char_ok(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '@' | '.' | '-')
}

impl DatasetMeta {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.name.len() as u64);
        w.bytes(self.name.as_bytes());
        match self.suggested_eps {
            Some(eps) => {
                w.u8(1);
                w.f64(eps);
            }
            None => {
                w.u8(0);
            }
        }
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let section = section_id::DATASET_META;
        let malformed = |reason: String| StoreError::Malformed { section, reason };
        let mut r = ByteReader::new(bytes, section);
        let len = r.u64()?;
        if len == 0 || len > MAX_NAME_BYTES as u64 {
            return Err(malformed(format!("name of {len} bytes")));
        }
        let name = std::str::from_utf8(r.bytes(len as usize)?)
            .map_err(|_| malformed("name is not UTF-8".into()))?;
        if !name.chars().all(name_char_ok) {
            return Err(malformed(format!("name {name:?} has illegal characters")));
        }
        let suggested_eps = match r.u8()? {
            0 => None,
            1 => {
                let eps = r.f64()?;
                if !eps.is_finite() || eps < 0.0 {
                    return Err(malformed("suggested ε is not finite and ≥ 0".into()));
                }
                Some(eps)
            }
            other => return Err(malformed(format!("bad ε flag {other}"))),
        };
        r.done()?;
        Ok(Self {
            name: name.to_string(),
            suggested_eps,
        })
    }
}

/// One dataset's complete persisted warm state: registry metadata, the
/// index snapshot (its sections flat in the same container), and the
/// dataset's surviving cache entries.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSnapshot {
    /// Registry metadata.
    pub meta: DatasetMeta,
    /// The prepared-index snapshot.
    pub index: IndexSnapshot,
    /// Serialized cache entries, tree-order labels.
    pub cache: Vec<CacheRecord>,
}

impl DatasetSnapshot {
    /// Serializes the dataset file: one flat container holding the
    /// metadata, index, and cache sections side by side.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.section(section_id::DATASET_META, self.meta.encode());
        self.index.encode_into(&mut w);
        w.section(section_id::CACHE, encode_cache_records(&self.cache));
        w.finish()
    }

    /// Parses and validates a dataset file.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let c = Container::parse(bytes.to_vec())?;
        let meta = DatasetMeta::decode(c.require(section_id::DATASET_META)?)?;
        let index = IndexSnapshot::decode_container(&c)?;
        let cache = decode_cache_records(c.require(section_id::CACHE)?)?;
        Ok(Self { meta, index, cache })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> IndexSnapshot {
        IndexSnapshot {
            points: vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 1.0),
                Point2::new(2.0, 2.0),
            ]
            .into(),
            permutation: vec![1, 2, 0],
            chosen_r: 2,
            fanout: 16,
            build_time_ns: 12_345,
            appended_since_sort: 1,
        }
    }

    #[test]
    fn index_snapshot_roundtrips_and_is_byte_stable() {
        let snap = sample_index();
        let bytes = snap.encode();
        let back = IndexSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes, "re-encode must be byte-identical");
        assert_eq!(
            vbp_geom::binning::unpermute(&back.permutation, |i| back.points[i]),
            vec![
                Point2::new(2.0, 2.0),
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 1.0),
            ]
        );
    }

    #[test]
    fn non_bijective_permutation_is_rejected() {
        let mut snap = sample_index();
        snap.permutation = vec![1, 1, 0];
        let err = IndexSnapshot::decode(&snap.encode()).unwrap_err();
        assert!(matches!(err, StoreError::Malformed { .. }), "{err}");
    }

    #[test]
    fn non_finite_points_are_rejected() {
        let mut snap = sample_index();
        snap.points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(f64::NAN, 0.0),
            Point2::new(2.0, 2.0),
        ]
        .into();
        assert!(IndexSnapshot::decode(&snap.encode()).is_err());
    }

    #[test]
    fn cache_records_roundtrip() {
        let records = vec![
            CacheRecord {
                eps: 1.5,
                minpts: 4,
                labels: vec![0, 0, NOISE, 1, 1],
            },
            CacheRecord {
                eps: 0.25,
                minpts: 9,
                labels: vec![NOISE; 5],
            },
        ];
        let bytes = encode_cache_records(&records);
        let back = decode_cache_records(&bytes).unwrap();
        assert_eq!(back, records);
        assert_eq!(back[0].to_result().num_clusters(), 2);
        assert_eq!(encode_cache_records(&back), bytes);
    }

    #[test]
    fn unfinished_or_sparse_labels_are_rejected_not_panicked() {
        for labels in [vec![0, UNCLASSIFIED], vec![0, 2], vec![5, NOISE]] {
            let bytes = encode_cache_records(&[CacheRecord {
                eps: 1.0,
                minpts: 2,
                labels,
            }]);
            assert!(matches!(
                decode_cache_records(&bytes),
                Err(StoreError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn dataset_snapshot_roundtrips() {
        let snap = DatasetSnapshot {
            meta: DatasetMeta {
                name: "cF_10k_5N@300".into(),
                suggested_eps: Some(0.7),
            },
            index: sample_index(),
            cache: vec![CacheRecord {
                eps: 1.0,
                minpts: 3,
                labels: vec![0, 0, NOISE],
            }],
        };
        let bytes = snap.encode();
        let back = DatasetSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn hostile_names_are_rejected() {
        let index = IndexSnapshot {
            points: Vec::new().into(),
            permutation: Vec::new(),
            chosen_r: 1,
            fanout: 2,
            build_time_ns: 0,
            appended_since_sort: 0,
        };
        for name in ["", "has space", "new\nline", "null\0byte"] {
            let snap = DatasetSnapshot {
                meta: DatasetMeta {
                    name: name.into(),
                    suggested_eps: None,
                },
                index: index.clone(),
                cache: Vec::new(),
            };
            assert!(
                DatasetSnapshot::decode(&snap.encode()).is_err(),
                "accepted {name:?}"
            );
        }
    }
}
